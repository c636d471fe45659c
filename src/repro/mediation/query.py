"""Query outcomes: what a ``SearchFor`` returns to the caller.

Besides the result tuples themselves, outcomes carry the measurement
data the paper's evaluation is built on — virtual latency, number of
reformulations explored, per-schema recall accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rdf.patterns import ConjunctiveQuery
from repro.rdf.terms import GroundTerm


@dataclass
class QueryOutcome:
    """Aggregated answer of one ``SearchFor`` invocation.

    ``results`` are projections onto the distinguished variables.
    ``results_by_query`` attributes each result tuple to the (original
    or reformulated) query that produced it — Figure 2's per-schema
    answer sets (``x1 = {EMBL:...}``, ``x2 = NEN...``).
    """

    query: ConjunctiveQuery
    strategy: str
    results: set[tuple[GroundTerm, ...]] = field(default_factory=set)
    results_by_query: dict[ConjunctiveQuery, set[tuple[GroundTerm, ...]]] = (
        field(default_factory=dict)
    )
    reformulations_explored: int = 0
    latency: float = 0.0
    issued_at: float = 0.0
    complete: bool = True
    #: network messages attributable to this query (filled by the
    #: harness from metric deltas; 0 when issued peer-side directly)
    messages: int = 0
    # -- streaming statistics (filled by the operator runtime) ---------
    #: requested result cap (``None`` = unlimited)
    limit: int | None = None
    #: whether the limit was reached (triggering cooperative cancel)
    limit_hit: bool = False
    #: virtual seconds from issue to the first non-empty result batch
    first_result_latency: float | None = None
    #: result rows that arrived after the limit cancelled the pipeline
    #: (received but discarded)
    rows_after_cancel: int = 0
    #: overlay fetches the pipeline actually issued
    fetches_issued: int = 0
    #: overlay fetches skipped because the limit stopped the pipeline
    fetches_skipped: int = 0
    #: per-operator row/fetch counters, in plan order
    operator_stats: list = field(default_factory=list)
    # -- optimizer record (strategy="auto" / optimizing engines) -------
    #: the :class:`~repro.optimizer.core.PlanDecision` behind this
    #: execution — chosen strategy, join mode, scan order, pruning and
    #: the estimated rows/messages to compare against the measured
    #: ``result_count`` / ``messages`` (``None`` on static paths)
    decision: object | None = None

    def record(self, produced_by: ConjunctiveQuery,
               rows: set[tuple[GroundTerm, ...]]) -> None:
        """Merge one reformulation's result set into the outcome."""
        self.results |= rows
        bucket = self.results_by_query.setdefault(produced_by, set())
        bucket |= rows

    @property
    def result_count(self) -> int:
        """Number of distinct result tuples."""
        return len(self.results)

    def sorted_results(self) -> list[tuple[GroundTerm, ...]]:
        """Results in deterministic order (for display and tests)."""
        return sorted(self.results)

    @property
    def estimated_messages_saved(self) -> int:
        """Messages the early stop avoided (estimate).

        Scales the query's measured per-fetch message cost by the
        number of fetches the cancelled pipeline skipped.  Zero when
        nothing was skipped or nothing was measured.
        """
        if not self.fetches_skipped or not self.fetches_issued:
            return 0
        return round(self.messages * self.fetches_skipped
                     / self.fetches_issued)
