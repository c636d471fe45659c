"""Query engine: reformulation-plan caching and batched execution.

The paper's mediation layer pays its main latency cost twice per
query: once reformulating the query over the mapping graph (BFS
through mapping records fetched from schema key spaces) and once
resolving each triple pattern through the overlay.  Neither cost is
inherent to a *repeated* query — the plan is a pure function of
(query structure, mapping graph), and identical patterns fetch
identical bindings — so this package reuses both:

:mod:`repro.engine.signature`
    Structural query signatures: variables are alpha-renamed to a
    canonical form, so queries differing only in variable names share
    one cache entry (and one pattern lookup).

:mod:`repro.engine.versioning`
    :class:`~repro.engine.versioning.MappingVersionClock` — tells its
    listeners which schemas move on each of the mapping-event hooks
    :class:`~repro.mediation.peer.GridVinePeer` fires on mapping
    insert / remove / deprecate (including mutations driven by the
    self-organization loop of :mod:`repro.selforg`).

:mod:`repro.engine.cache`
    :class:`~repro.engine.cache.PlanCache` — an LRU cache of
    reformulation plans, each entry recording the schemas it depends
    on and eagerly invalidated when any of them changes.

:mod:`repro.engine.executor`
    Batched multi-query execution: all patterns across a batch are
    deduplicated, fetched once, and fanned back out to each query's
    origin-side join pipeline.

:mod:`repro.engine.core`
    :class:`~repro.engine.core.QueryEngine` — the facade tying the
    pieces to a live :class:`~repro.mediation.network.GridVineNetwork`
    and exposing per-query / per-batch execution statistics
    (:class:`~repro.engine.core.EngineStats`).

Quickstart::

    from repro import GridVineNetwork, QueryEngine
    net = GridVineNetwork.build(num_peers=32, seed=7)
    ...  # insert schemas, triples, mappings
    engine = net.create_engine(domain="bio")
    outcome = engine.search_for(
        "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))")
    batch = engine.execute_batch(queries)
    print(engine.stats.snapshot())   # hit rate, lookups saved, ...
"""

from repro.engine.cache import PlanCache, PlanCacheStats
from repro.engine.core import BatchResult, EngineStats, QueryEngine
from repro.engine.executor import BatchFetchStats, execute_batch
from repro.engine.signature import (
    canonicalize_pattern,
    canonicalize_query,
    rename_query,
)
from repro.engine.versioning import MappingVersionClock

__all__ = [
    "BatchFetchStats",
    "BatchResult",
    "EngineStats",
    "MappingVersionClock",
    "PlanCache",
    "PlanCacheStats",
    "QueryEngine",
    "canonicalize_pattern",
    "canonicalize_query",
    "execute_batch",
    "rename_query",
]
