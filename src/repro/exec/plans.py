"""Plan builders: from (query, strategy) to a wired operator DAG.

The three ``SearchFor`` strategies of §4 are expressed as different
*shapes* of the same operator algebra:

``local``
    one execution subplan for the original query — an ``Answer``
    fetching its own patterns, the exact-routed ones as one split read
    (or ``BoundJoin -> Answer``) — feeding the query's ``Collect``: a
    one-pattern query is ``Answer -> Collect``, two operators;

``iterative``
    a :class:`~repro.exec.operators.Reformulate` source that walks
    mapping paths through the overlay one BFS level at a time and
    spawns one such subplan per distinct reformulation, at its
    shortest hop count, all feeding the same ``Collect``; a level's
    schema spaces are one read, and so are the patterns of every
    subplan it spawns;

``recursive``
    a :class:`~repro.exec.operators.RecursiveFanout` source streaming
    already-projected rows back from the schema peers into the same
    ``Collect``.

The ``Collect`` tail is where limit pushdown lives: a satisfied limit
fires the pipeline's cancel token, upstream operators stop issuing
fetches, and the outcome records what that saved.  The batched engine
executor (:mod:`repro.engine.executor`) builds its own multi-query DAG
— shared ``PatternScan -> Answer -> Collect`` — from the same operator
classes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.operators import (
    Answer,
    BoundJoin,
    Collect,
    RecursiveFanout,
    Reformulate,
)
from repro.exec.stream import Operator, PipelineContext
from repro.rdf.patterns import ConjunctiveQuery
from repro.simnet.events import Future

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.mediation.peer import GridVinePeer

#: strategies :func:`run_query_plan` knows how to build (``"auto"``
#: resolves to one of the other three via the peer's optimizer)
STRATEGIES = ("local", "iterative", "recursive", "auto")


def check_limit(limit: int | None) -> None:
    """Reject a result cap that admits no row (``None``: no cap).

    Every query entry point calls this before it sends anything, the
    rule :class:`~repro.resilience.scenario.ScenarioSpec` applies.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be None or >= 1, got {limit!r}")


def check_max_hops(max_hops: int) -> None:
    """Reject a negative reformulation depth (``0``: the query alone).

    Called wherever :func:`check_limit` is, before anything is sent or
    planned, the rule :class:`~repro.resilience.scenario.ScenarioSpec`
    applies.
    """
    if max_hops < 0:
        raise ValueError(f"max_hops must be >= 0, got {max_hops!r}")


def attach_execution_subplan(ctx: PipelineContext,
                             query: ConjunctiveQuery,
                             downstream: Operator) -> None:
    """Wire and start the execution subplan of one (reformulated)
    query, feeding ``downstream``.

    Honours the peer's :attr:`~repro.mediation.peer.GridVinePeer.
    join_mode`: in parallel mode the query's
    :class:`~repro.exec.operators.Answer` fetches every pattern
    independently and joins at the origin; bound mode feeds it from
    the sequential substituting join.  Either way exactly one
    attributable row stream per reformulation reaches ``downstream``.

    When the pipeline carries an optimizer decision (``ctx.decision``,
    set by ``strategy="auto"``), the join mode may be overridden per
    query and pattern fetches / bound-join steps run in the
    optimizer's estimated-cardinality order; otherwise the historical
    static behaviour applies unchanged.
    """
    peer = ctx.peer
    decision = ctx.decision
    join_mode = peer.join_mode
    ordered = None
    if decision is not None:
        if decision.join_mode is not None:
            join_mode = decision.join_mode
        optimizer = getattr(peer, "optimizer", None)
        if optimizer is not None:
            ordered = optimizer.scan_order(query)
    answer = Answer(query)
    answer.connect(downstream)
    ctx.register(answer)
    # Fetch only after the chain is fully wired: a fetch whose key the
    # origin owns completes synchronously.
    if join_mode == "bound" and len(query.patterns) > 1:
        join = BoundJoin(query, peer.bound_join_fanout_cap,
                         ordered=ordered)
        join.connect(answer)
        ctx.start_source(join)
    else:
        answer.fetch(ctx, ordered if ordered is not None
                     else query.patterns)


def execute_query_rows(peer: "GridVinePeer",
                       query: ConjunctiveQuery) -> Future:
    """Resolve one query's rows from ``peer`` (no reformulation),
    honouring the peer's ``join_mode``.

    Resolves to the set of projected result tuples — what a schema
    peer executing a received reformulation on the recursive path
    sends back.
    """
    ctx = PipelineContext(peer)
    collect = Collect(ctx)
    ctx.register(collect)
    attach_execution_subplan(ctx, query, collect)
    return collect.future


def run_query_plan(peer: "GridVinePeer", query: ConjunctiveQuery,
                   strategy: str, max_hops: int,
                   limit: int | None = None) -> Future:
    """Build, wire and start the operator DAG of one ``SearchFor``.

    ``strategy="auto"`` consults the peer's cost-based optimizer: the
    executed strategy, join mode, scan order and reformulation pruning
    are chosen from propagated statistics (falling back to the static
    iterative path when none exist), and the
    :class:`~repro.optimizer.core.PlanDecision` is recorded on the
    outcome.

    Returns a future resolving to the :class:`~repro.mediation.query.
    QueryOutcome`, with streaming statistics (first-result latency,
    limit/cancellation accounting, per-operator counters) filled in.
    """
    # Imported here, not at module top: repro.mediation's package init
    # imports the peer, which imports this module — a lazy import keeps
    # either entry point (mediation first or exec first) working.
    from repro.mediation.query import QueryOutcome

    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    check_limit(limit)
    check_max_hops(max_hops)
    ctx = PipelineContext(peer)
    outcome = QueryOutcome(query=query, strategy=strategy,
                           issued_at=peer.loop.now, limit=limit)
    decision = None
    if strategy == "auto":
        decision = peer.optimizer.choose_strategy(query, max_hops)
        outcome.decision = decision
        strategy = decision.strategy
        if not decision.fallback:
            ctx.decision = decision
    collect = Collect(ctx, outcome=outcome, limit=limit)
    ctx.register(collect)

    reformulate: Reformulate | None = None
    fanout: RecursiveFanout | None = None

    def _finalize() -> None:
        outcome.latency = peer.loop.now - outcome.issued_at
        if collect.first_rows_at is not None:
            outcome.first_result_latency = (collect.first_rows_at
                                            - outcome.issued_at)
        outcome.limit_hit = collect.satisfied
        (outcome.fetches_issued, outcome.fetches_skipped,
         outcome.operator_stats) = ctx.totals()
        outcome.rows_after_cancel = collect.late_rows
        if reformulate is not None:
            # Pruned translations were derived but never executed —
            # they count as pruned, not as explored.
            outcome.reformulations_explored = (
                len(reformulate.seen) - 1 - reformulate.pruned)
            if decision is not None:
                decision.reformulations_pruned = reformulate.pruned
        elif fanout is not None:
            outcome.reformulations_explored = max(
                0, len(outcome.results_by_query) - 1)
            outcome.complete = fanout.complete

    collect.finalize = _finalize

    def _on_satisfied() -> None:
        # Cooperative early stop: cancel upstream work first (pending
        # overlay ops resolve immediately, nothing new is issued),
        # then resolve the outcome.
        ctx.cancel.cancel()
        collect.resolve()

    collect.on_satisfied = _on_satisfied

    if strategy == "local":
        attach_execution_subplan(ctx, query, collect)
    elif strategy == "iterative":
        prune = None
        if ctx.decision is not None:
            prune = peer.optimizer.keep_reformulation
        reformulate = Reformulate(
            query, max_hops,
            lambda c, q: attach_execution_subplan(c, q, collect),
            prune=prune)
        reformulate.connect(collect)
        ctx.start_source(reformulate)
    else:  # "recursive"
        fanout = RecursiveFanout(query, max_hops)
        fanout.connect(collect)
        ctx.start_source(fanout)
    return collect.future
