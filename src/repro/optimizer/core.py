"""The query optimizer: statistics in, execution decisions out.

:class:`QueryOptimizer` lives on every
:class:`~repro.mediation.peer.GridVinePeer` and reads the peer's
synopsis registry (filled by piggybacked gossip, see
:mod:`repro.stats.gossip`) plus the peer's own fresh digest.  It is
consulted on one path, ``strategy="auto"`` queries:
:meth:`choose_strategy` picks the execution strategy, join mode and
scan order, and the resulting :class:`PlanDecision` rides on the
pipeline context so the plan builders (:mod:`repro.exec.plans`) apply
it, live reformulation pruning (:meth:`keep_reformulation`) included.

Static strategies and engine batches never consult the optimizer,
and with no statistics propagated yet every method returns its
explicit fallback (``None`` / ``fallback=True``), reproducing the
historical ``selectivity_rank`` behaviour bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.optimizer import cost
from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
from repro.stats.estimator import CardinalityEstimator

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.mediation.peer import GridVinePeer


@dataclass
class PlanDecision:
    """One ``strategy="auto"`` query's optimizer verdict, recorded on
    its outcome.

    ``strategy`` is the per-query pick that executed;
    ``estimated_rows`` / ``estimated_messages`` are the model's
    predictions, to be compared against the outcome's measured
    ``result_count`` / ``messages``.
    """

    #: the strategy the optimizer resolved to
    strategy: str
    #: per-query join-mode override (``None`` = peer default)
    join_mode: str | None = None
    #: True when no statistics had propagated and the static
    #: heuristics ran unchanged
    fallback: bool = False
    #: digests that contributed to the estimates
    known_peers: int = 0
    #: cost-based scan order (pattern strings, most selective first)
    pattern_order: tuple[str, ...] = ()
    #: reformulations dropped for zero expected yield (filled in
    #: during execution)
    reformulations_pruned: int = 0
    estimated_rows: float | None = None
    estimated_messages: float | None = None
    #: one-line human-readable rationale
    reason: str = ""
    #: candidate-strategy cost estimates (message units), for reports
    candidate_costs: dict = field(default_factory=dict)


class QueryOptimizer:
    """Cost-based decisions over one peer's statistics registry."""

    def __init__(self, peer: "GridVinePeer") -> None:
        self.peer = peer
        self._estimator = CardinalityEstimator(peer.synopses)

    # ------------------------------------------------------------------
    # Statistics access
    # ------------------------------------------------------------------

    @property
    def estimator(self) -> CardinalityEstimator:
        """The network-wide estimator, own digest folded in fresh."""
        own = self.peer.synopsis_digest()
        self._estimator.extra = [own] if own is not None else []
        return self._estimator

    def has_statistics(self, query: ConjunctiveQuery) -> bool:
        """Whether propagated statistics can inform this query.

        Requires at least one *other* peer's digest (the registry
        never holds the peer's own) and an estimate for at least one
        of the query's patterns — otherwise the static heuristics are
        strictly better informed.
        """
        if len(self.peer.synopses) == 0:
            return False
        estimator = self.estimator
        return any(estimator.pattern_cardinality(p) is not None
                   for p in query.patterns)

    # ------------------------------------------------------------------
    # Join order and mode
    # ------------------------------------------------------------------

    def scan_order(self, query: ConjunctiveQuery
                   ) -> list[TriplePattern] | None:
        """Patterns ordered by estimated cardinality (ascending).

        ``None`` when no statistics have propagated — callers fall
        back to the static ``selectivity_rank`` order.  Patterns the
        statistics cannot estimate sort last (static rank as
        tie-break), so partially covered queries still benefit; under
        full key-space coverage an absent predicate estimates as an
        empty extent and sorts first.
        """
        from repro.exec.operators import selectivity_rank

        if not self.has_statistics(query):
            return None
        estimator = self.estimator
        ranked = []
        for pattern in query.patterns:
            cardinality = estimator.pattern_cardinality(pattern)
            ranked.append((
                cardinality if cardinality is not None else float("inf"),
                selectivity_rank(pattern),
                pattern,
            ))
        ranked.sort(key=lambda item: item[:2])
        return [pattern for _card, _rank, pattern in ranked]

    def join_plan(self, query: ConjunctiveQuery
                  ) -> tuple[list[TriplePattern], str] | None:
        """Cost-based (scan order, join mode) for a conjunctive query.

        Compares the parallel mode (one fetch per pattern, whole
        extents shipped, one round trip) against the bound mode
        (sequential substituting fetches, far less volume, one round
        trip per step) on the cost model.  ``None`` without
        statistics.
        """
        order = self.scan_order(query)
        if order is None:
            return None
        if len(query.patterns) < 2:
            return order, "parallel"
        estimator = self.estimator
        route = cost.route_messages(len(self.peer.path))
        cards = [estimator.pattern_cardinality(p) for p in order]
        known = [c for c in cards if c is not None]
        default = max(known) if known else 1.0
        cards = [c if c is not None else default for c in cards]
        parallel_cost = cost.combine(
            messages=len(order) * route,
            round_trips=1.0,
            rows_shipped=sum(cards),
        )
        cap = self.peer.bound_join_fanout_cap
        bound_messages = route
        bound_rows = cards[0]
        running = max(1.0, cards[0])
        for cardinality in cards[1:]:
            variants = min(running, float(cap))
            bound_messages += max(1.0, variants) * route
            # A substituted variant returns its share of the extent.
            share = cardinality / max(1.0, running)
            bound_rows += min(cardinality, variants * max(1.0, share))
            running = max(1.0, min(running, cardinality))
        bound_cost = cost.combine(
            messages=bound_messages,
            round_trips=float(len(order)),
            rows_shipped=bound_rows,
        )
        mode = ("bound"
                if bound_cost < cost.SWITCH_MARGIN * parallel_cost
                else "parallel")
        return order, mode

    # ------------------------------------------------------------------
    # Reformulation pruning
    # ------------------------------------------------------------------

    def expected_yield(self, query: ConjunctiveQuery,
                       confidence: float = 1.0) -> float | None:
        """``confidence × estimated result rows`` of one reformulation.

        ``None`` when the statistics cannot estimate the query at all
        (callers must keep it — pruning on ignorance loses results).
        """
        rows = self.estimator.query_cardinality(query)
        if rows is None:
            return None
        return confidence * rows

    def keep_reformulation(self, query: ConjunctiveQuery,
                           confidence: float) -> bool:
        """Prune predicate for live reformulation fan-out: a
        reformulation is dropped when its expected yield is zero."""
        expected = self.expected_yield(query, confidence)
        return expected is None or expected > 0.0

    # ------------------------------------------------------------------
    # Strategy choice (strategy="auto")
    # ------------------------------------------------------------------

    def _mapping_reach(self, schemas: set[str], max_hops: int
                       ) -> tuple[int, int, list[str]]:
        """BFS over *known* mapping edges from the query's schemas.

        Returns ``(edges_explored, useful_targets, reached_schemas)``:
        each BFS-tree edge is one reformulation forward.  Back edges
        into reached schemas count nothing: recursive never forwards
        them, but on the iterative path a non-inverse cycle (``A#x ->
        B#y -> A#z``) derives a new query this estimate leaves out.  A
        target is *useful* when its schema holds any data at all
        (schema-level cardinality — optimistic on purpose: the
        per-predicate check happens at live pruning time).  Without
        full key-space coverage every target counts as useful: the data
        might live on a peer whose digest has not gossiped in.
        """
        estimator = self.estimator
        authoritative = estimator.full_coverage()
        reached = set(schemas)
        frontier = sorted(schemas)
        edges = 0
        useful = 0
        for _hop in range(max_hops):
            next_frontier: list[str] = []
            for schema in frontier:
                for target, _confidence in estimator.mapping_edges(schema):
                    if target in reached:
                        continue
                    edges += 1
                    reached.add(target)
                    next_frontier.append(target)
                    if (not authoritative
                            or estimator.schema_cardinality(target) > 0):
                        useful += 1
            if not next_frontier:
                break
            frontier = next_frontier
        return edges, useful, sorted(reached)

    def choose_strategy(self, query: ConjunctiveQuery,
                        max_hops: int) -> PlanDecision:
        """Resolve one ``strategy="auto"`` query.

        ``local`` when no known mapping edge leaves the query's
        schemas (or none leads to data), ``iterative``/``recursive``
        by modelled message cost otherwise; ``iterative`` with
        ``fallback=True`` when no statistics have propagated.
        Skipping reformulation entirely (``local``) additionally
        requires the digests to cover the whole key space — with
        partial coverage a mapping could live on a peer whose digest
        has not arrived, so the choice stays conservative.
        """
        from repro.mapping.unfolding import query_schemas

        if not self.has_statistics(query):
            return PlanDecision(
                strategy="iterative", fallback=True,
                reason="no statistics propagated yet; static iterative",
            )
        estimator = self.estimator
        route = cost.route_messages(len(self.peer.path))
        n_patterns = len(query.patterns)
        schemas = query_schemas(query)
        edges, useful, reached = self._mapping_reach(schemas, max_hops)
        local_messages = n_patterns * route
        estimated_rows = estimator.query_cardinality(query)
        order = self.scan_order(query) or list(query.patterns)
        join = self.join_plan(query)
        join_mode = join[1] if join is not None else None
        decision = PlanDecision(
            strategy="local",
            join_mode=join_mode,
            known_peers=estimator.known_peers(),
            pattern_order=tuple(str(p) for p in order),
            estimated_rows=estimated_rows,
        )
        if edges == 0 or useful == 0:
            if estimator.full_coverage():
                decision.estimated_messages = local_messages
                decision.reason = (
                    "no known mapping edges leave the query's schemas"
                    if edges == 0 else
                    "all reachable mapping targets hold no data"
                )
                decision.candidate_costs = {"local": local_messages}
                return decision
            # Partial coverage: an unseen peer could hold the mapping
            # that makes reformulation worthwhile — never skip it on
            # incomplete evidence.
            decision.strategy = "iterative"
            decision.estimated_messages = (
                local_messages + len(schemas) * route)
            decision.reason = ("partial synopsis coverage; "
                               "conservative iterative")
            decision.candidate_costs = {"local": local_messages}
            return decision
        # Iterative (with live pruning): the origin fetches the schema
        # spaces of the original query and of every *useful* target —
        # zero-yield translations are pruned before their schema space
        # or patterns are ever fetched — and executes the original
        # plus each useful reformulation itself, all at full-depth
        # origin routing.
        depth = len(self.peer.path)
        iterative_messages = (
            (1 + useful) * n_patterns * route
            + (len(schemas) + useful) * route
        )
        # Recursive: one handler per explored edge plus the root.
        # Pruning is impossible (intermediate peers decide blindly),
        # so dead edges cost like live ones — but each handler enjoys
        # key locality (see optimizer.cost) and replies directly.
        recursive_messages = (
            (1 + edges)
            * cost.recursive_handler_messages(n_patterns, depth)
        )
        decision.candidate_costs = {
            "local": local_messages,
            "iterative": iterative_messages,
            "recursive": recursive_messages,
        }
        if recursive_messages < iterative_messages:
            decision.strategy = "recursive"
            decision.estimated_messages = recursive_messages
            decision.reason = (
                f"{useful} useful reformulation(s) over {edges} "
                "edge(s); delegation exploits schema-key locality")
        else:
            decision.strategy = "iterative"
            decision.estimated_messages = iterative_messages
            decision.reason = (
                f"{useful} useful of {edges} edge(s); origin-side "
                "reformulation prunes the dead fan-out")
        return decision
