"""The query engine: cached planning + batched execution, one facade.

:class:`QueryEngine` sits next to a live
:class:`~repro.mediation.network.GridVineNetwork` and owns three
pieces of state:

* a **mapping-graph mirror** — a local
  :class:`~repro.mapping.graph.MappingGraph` kept in sync with the
  deployment through the mapping-event hooks every
  :class:`~repro.mediation.peer.GridVinePeer` fires when a mapping is
  inserted, removed or deprecated (the self-organization loop's
  mutations flow through the same hooks);
* a **version clock** (:class:`~repro.engine.versioning.
  MappingVersionClock`) bumped by the same events; and
* a **plan cache** (:class:`~repro.engine.cache.PlanCache`) of
  reformulation plans, invalidated by the clock at schema granularity.

``search_for`` / ``execute_batch`` then answer queries without ever
re-fetching mapping records or re-running BFS planning for a query
shape the engine has seen before, and a batch dedupes its overlay
pattern lookups across all member queries.  A batch runs exactly the
plans the cache holds: the engine consults no statistics (cost-based
decisions belong to ``strategy="auto"``).

The mirror reflects *issued* operations immediately (the simulator's
issuing order is deterministic), so a freshly inserted mapping is
plannable even before the overlay records finish replicating.  An
engine created after deployment data was already loaded must call
:meth:`QueryEngine.sync_from_overlay` once to backfill the mirror.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.cache import PlanCache, PlanCacheStats
from repro.engine.executor import BatchFetchStats
from repro.engine.versioning import MappingVersionClock
from repro.exec.plans import check_limit, check_max_hops
from repro.mapping.graph import MappingGraph
from repro.mapping.model import SchemaMapping
from repro.mediation.query import QueryOutcome
from repro.rdf.parser import parse_search_for
from repro.rdf.patterns import ConjunctiveQuery
from repro.reformulation.planner import Reformulation, plan_reformulations
from repro.util.stats import ratio

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.mediation.network import GridVineNetwork


class EngineStats(BatchFetchStats):
    """Lifetime execution statistics of one :class:`QueryEngine`.

    Every batch's :class:`~repro.engine.executor.BatchFetchStats`
    summed (``stats.add(fetch_stats)``), plus: ``planner_invocations``
    (times the BFS planner actually ran, i.e. plan-cache misses),
    ``queries_executed`` / ``batches_executed`` and ``messages``
    (network messages attributed to engine execution).  ``cache`` is
    the plan cache's own bag, reported nested.
    """

    _lifetime = ("planner_invocations", "queries_executed",
                 "batches_executed", "messages")
    _fields = BatchFetchStats._fields + _lifetime
    _derived = ("lookups_saved", "dedup_rate")
    #: an attribute only: committed reports pin the snapshot's key set
    _unreported = ("scans_issued",)
    __slots__ = _lifetime + ("cache",)

    def __init__(self, cache: PlanCacheStats | None = None) -> None:
        super().__init__()
        self.cache = cache if cache is not None else PlanCacheStats()

    @property
    def dedup_rate(self) -> float:
        """Fraction of pattern occurrences served by a shared lookup."""
        return ratio(self.lookups_saved, self.patterns_total)

    def snapshot(self) -> dict:
        """The counters, with the plan cache's nested under ``cache``."""
        return {**super().snapshot(), "cache": self.cache.snapshot()}


@dataclass
class BatchResult:
    """Outcomes of one :meth:`QueryEngine.execute_batch` call.

    The batch's fetch counters read through: ``result.patterns_total``,
    ``patterns_fetched``, ``scans_issued``, ``scans_skipped``,
    ``limits_hit`` and ``lookups_saved`` are ``fetch_stats``'s.
    """

    outcomes: list[QueryOutcome]
    #: what pattern sharing and limit pushdown saved for this batch
    fetch_stats: BatchFetchStats
    #: network messages measured for this batch
    messages: int

    def __getattr__(self, name: str) -> int:
        if name in BatchFetchStats._fields + BatchFetchStats._derived:
            return getattr(self.fetch_stats, name)
        raise AttributeError(name)


class QueryEngine:
    """Reformulation-plan caching and batched execution for a network.

    Parameters
    ----------
    network:
        The deployment to execute against.
    domain:
        When given, the mirror graph is immediately backfilled from
        the overlay (``sync_from_overlay``); otherwise the mirror
        starts empty and fills up from mapping events only.
    max_hops:
        Default BFS depth for reformulation planning (mirrors
        ``GridVineNetwork.search_for``).
    cache_capacity:
        Plan-cache size; ``0`` disables caching (cold baseline).
    """

    def __init__(self, network: "GridVineNetwork",
                 domain: str | None = None,
                 max_hops: int = 5,
                 cache_capacity: int = 256) -> None:
        check_max_hops(max_hops)
        self.network = network
        self.max_hops = max_hops
        self.clock = MappingVersionClock()
        self.cache = PlanCache(self.clock, capacity=cache_capacity)
        self.graph = MappingGraph()
        self.stats = EngineStats(cache=self.cache.stats)
        network.add_mapping_listener(self._on_mapping_event)
        if domain is not None:
            self.sync_from_overlay(domain)

    # ------------------------------------------------------------------
    # Mirror maintenance
    # ------------------------------------------------------------------

    def _on_mapping_event(self, action: str,
                          mapping: SchemaMapping) -> None:
        """Apply one peer-issued mapping event to mirror and clock."""
        if action == "remove":
            self.graph.remove(mapping.mapping_id)
        else:  # "insert" or "deprecate" — payload carries the new state
            self.graph.add(mapping)
        self.clock.bump(mapping)

    def sync_from_overlay(self, domain: str = "default") -> None:
        """Rebuild the mirror by crawling the overlay's mapping records.

        Needed once when the engine is created *after* mappings were
        already inserted; subsequent events keep the mirror current.
        Flushes the plan cache, since plans may predate the rebuild.
        """
        self.graph = self.network.mapping_graph(domain,
                                               include_deprecated=True)
        self.cache.invalidate_all()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self, query: ConjunctiveQuery,
             max_hops: int | None = None) -> list[Reformulation]:
        """The reformulation plan for ``query``, cached when possible."""
        hops = self.max_hops if max_hops is None else max_hops
        check_max_hops(hops)
        cached = self.cache.lookup(query, hops)
        if cached is not None:
            return cached
        self.stats.planner_invocations += 1
        plan = plan_reformulations(query, self.graph, max_hops=hops)
        self.cache.store(query, hops, plan)
        return plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def search_for(self, query: ConjunctiveQuery | str,
                   max_hops: int | None = None,
                   origin: str | None = None,
                   limit: int | None = None) -> QueryOutcome:
        """Resolve one query through the engine (strategy ``"engine"``).

        Accepts the paper's surface syntax like
        ``GridVineNetwork.search_for``; equivalent to a one-query
        batch.  ``limit`` is pushed into the executor (wave-staged
        fetching with cooperative early stop).
        """
        result = self.execute_batch([query], max_hops=max_hops,
                                    origin=origin, limit=limit)
        return result.outcomes[0]

    def execute_batch(self, queries: list[ConjunctiveQuery | str],
                      max_hops: int | None = None,
                      origin: str | None = None,
                      limit: int | None = None) -> BatchResult:
        """Plan and run a batch of queries with shared pattern lookups.

        Every query is planned through the cache, the union of all
        reformulations' patterns is deduplicated into shared scan
        operators, and each query's joins run over the shared fetch
        results.  Joins use the parallel mode (per-pattern fetch +
        origin-side join); the bound-join mode trades per-query
        messages for shipped volume and does not compose with
        cross-query sharing.

        ``limit`` caps every query's distinct result rows; scans then
        start in waves by reformulation depth, and once each query has
        enough rows the batch cancels its remaining fan-out
        (:attr:`BatchResult.scans_skipped` reports the savings).

        Message accounting lives on the returned
        :attr:`BatchResult.messages`: shared lookups make per-query
        attribution meaningless, so individual outcomes carry a
        message count only for single-query batches.
        """
        check_limit(limit)
        if max_hops is not None:
            check_max_hops(max_hops)
        parsed = [
            parse_search_for(q) if isinstance(q, str) else q
            for q in queries
        ]
        plans = [self.plan(q, max_hops) for q in parsed]
        peer = self.network._origin(origin)
        # The transport-coupled half (operation tagging, tracing,
        # driving the loop) is the network's ``run_batch``: one
        # attributed submission on whichever engine it runs on.
        outcomes, fetch_stats, messages = self.network.run_batch(
            peer, parsed, plans, limit=limit)
        if len(outcomes) == 1:
            outcomes[0].messages = messages
        self.stats.batches_executed += 1
        self.stats.queries_executed += len(parsed)
        self.stats.messages += messages
        self.stats.add(fetch_stats)
        return BatchResult(outcomes, fetch_stats, messages)
