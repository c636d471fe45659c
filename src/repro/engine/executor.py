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
* each (query, reformulation) pair gets one
  :class:`~repro.exec.operators.Answer` over its scans (join, project,
  dedup), all feeding the query's one
  :class:`~repro.exec.operators.Collect` (union, limit, sink): shared
  ``PatternScan -> Answer -> Collect``, the paper's parallel join
  mode ("iteratively resolving each triple pattern contained in the
  query and aggregating the sets of results retrieved", §2.3) with
  per-reformulation result attribution.

With a result ``limit``, scans start in **waves** by reformulation
hop count (:func:`~repro.reformulation.planner.reformulation_waves`):
wave ``h`` only starts once wave ``h-1``'s scans finished and some
query is still unsatisfied.  Each satisfied limit resolves its
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
from repro.reformulation.planner import Reformulation, reformulation_waves
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
        #: id(scan) -> indices of the queries consuming that scan
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
    optimizer=None,
) -> Future:
    """Run a batch of planned queries from ``peer``.

    ``plans[i]`` is the reformulation plan of ``queries[i]`` (the
    original query included).  Resolves to ``(outcomes, fetch_stats)``
    where ``outcomes[i]`` is the :class:`QueryOutcome` of
    ``queries[i]`` with per-reformulation result attribution, exactly
    as the iterative strategy would have produced.  ``limit`` (when
    given) caps every query's distinct result rows and enables
    wave-staged fetching with cooperative early stop.

    ``optimizer`` (a :class:`~repro.optimizer.core.QueryOptimizer`,
    passed by engines running with ``optimize=True``) orders each
    reformulation's *join inputs* by estimated cardinality — the
    shared scans still fetch the same pattern set (message count is
    unchanged), but each answer folds its join most-selective-first,
    keeping intermediate binding sets small.  Without one the historical
    pattern order applies.
    """
    if len(queries) != len(plans):
        raise ValueError("one plan per query required")
    issued_at = peer.loop.now
    stats = BatchFetchStats()
    ctx = PipelineContext(peer)
    #: canonical pattern -> index into the scan list
    fetch_index: dict = {}
    scans: list[PatternScan] = []
    #: per scan: the earliest reformulation wave needing it
    scan_wave: list[int] = []
    #: (query index, reformulation, [(scan idx, inverse renaming)])
    uses: list[tuple[int, Reformulation, list[tuple[int, dict]]]] = []
    for query_index, plan in enumerate(plans):
        # BFS order is preserved: the planner emits reformulations
        # wave by wave, so flattening the waves re-yields plan order.
        for wave_index, wave in enumerate(reformulation_waves(plan)):
            for reformulation in wave:
                patterns = list(reformulation.query.patterns)
                if optimizer is not None:
                    ordered = optimizer.scan_order(reformulation.query)
                    if ordered is not None:
                        patterns = ordered
                per_pattern: list[tuple[int, dict]] = []
                for pattern in patterns:
                    stats.patterns_total += 1
                    canonical, inverse = canonicalize_pattern(pattern)
                    index = fetch_index.get(canonical)
                    if index is None:
                        index = len(scans)
                        fetch_index[canonical] = index
                        scans.append(PatternScan(canonical))
                        scan_wave.append(wave_index)
                    else:
                        scan_wave[index] = min(scan_wave[index],
                                               wave_index)
                    per_pattern.append((index, inverse))
                uses.append((query_index, reformulation, per_pattern))
    stats.patterns_fetched = len(scans)
    ctx.register(*scans)

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
        ctx.register(collect)

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

    # -- one answer per reformulation over shared scans ----------------
    for query_index, reformulation, per_pattern in uses:
        answer = Answer(reformulation.query)
        for scan_index, inverse in per_pattern:
            scheduler.consumers.setdefault(
                id(scans[scan_index]), set()).add(query_index)
            scans[scan_index].connect(
                answer,
                transform=(None if not inverse else (
                    # One schema remap per batch; the rows are
                    # shared, not copied.
                    lambda batch, inverse=inverse: batch.renamed(inverse)
                )),
            )
        answer.connect(collects[query_index])
        ctx.register(answer)

    # -- wave-staged scan scheduling -----------------------------------
    if limit is None:
        scheduler.waves = [scans] if scans else []
    else:
        # Group by the earliest plan wave needing each scan; the wave
        # structure mirrors :func:`reformulation_waves` of the plans.
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
