"""The invalidation-aware reformulation-plan cache.

Planning a reformulation is pure — ``plan_reformulations(query,
graph)`` depends on nothing else — so its result can be cached under
the query's structural signature (:mod:`repro.engine.signature`) for
as long as the consulted part of the mapping graph stays put.  Each
entry therefore records, next to the canonical plan, the set of
schemas the plan touched and a :class:`~repro.engine.versioning.
MappingVersionClock` snapshot of their versions.

Invalidation is *eager*: the cache subscribes to the clock, and the
moment a mapping event bumps a schema's version every entry depending
on that schema is dropped.  A lazy snapshot check on lookup backs this
up, so a cache wired to a clock that was bumped before subscription
still never serves a stale plan.

The dependency set of a plan is the union of the schemas referenced by
any of its reformulations (including the original query).  A new
mapping can only extend the plan if its source schema is already
reachable — i.e. in that set — and removing or deprecating a mapping
can only shrink the plan if the mapping left a schema in the set, so
schema-granular invalidation is exact for removals and conservative
only for mapping *targets* (cheap, and always safe).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.engine.signature import canonicalize_query, rename_query
from repro.engine.versioning import MappingVersionClock
from repro.mapping.unfolding import query_schemas
from repro.obs.registry import CounterGroup
from repro.rdf.patterns import ConjunctiveQuery
from repro.reformulation.planner import Reformulation
from repro.util.stats import ratio

#: cache key: (canonical query, max_hops, include_original)
_Key = tuple[ConjunctiveQuery, int, bool]


class PlanCacheStats(CounterGroup):
    """Lifetime counters of one :class:`PlanCache`."""

    _fields = ("hits", "misses", "stores", "invalidations", "evictions")
    _derived = ("lookups", "hit_rate")
    __slots__ = _fields

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 when unused)."""
        return ratio(self.hits, self.lookups)


class _Entry:
    """One cached plan: canonical reformulations + version snapshot."""

    __slots__ = ("reformulations", "depends_on", "snapshot", "renamed")

    def __init__(self, reformulations: list[Reformulation],
                 depends_on: set[str], snapshot: dict[str, int]) -> None:
        self.reformulations = reformulations
        self.depends_on = depends_on
        self.snapshot = snapshot
        #: the plan as last served: ``(inverse renaming's items, plan in
        #: the asker's variables)`` — repeat lookups of one query skip
        #: the renaming and share its (already prepared) patterns
        self.renamed: tuple[tuple, list[Reformulation]] | None = None


class PlanCache:
    """LRU cache of reformulation plans with schema-level invalidation.

    ``capacity=0`` disables caching entirely (every lookup misses,
    stores are dropped) — benchmarks use this as the honest cold
    baseline.
    """

    def __init__(self, clock: MappingVersionClock,
                 capacity: int = 256) -> None:
        self.clock = clock
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._entries: "OrderedDict[_Key, _Entry]" = OrderedDict()
        #: schema -> keys of entries depending on it (eager invalidation)
        self._by_schema: dict[str, set[_Key]] = {}
        clock.add_listener(self._on_schema_bumped)

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[tuple[_Key, _Entry]]:
        """Live ``(key, entry)`` pairs, LRU order (oldest first).

        Keys are ``(canonical query, max_hops, include_original)`` and
        entries carry *canonical* plans — used by the fault lab's
        cache-coherence invariant to replay every cached plan against
        a fresh planning run.  Read-only: does not touch LRU order or
        stats.
        """
        return list(self._entries.items())

    # -- lookup / store -------------------------------------------------

    def lookup(self, query: ConjunctiveQuery, max_hops: int,
               include_original: bool = True) -> list[Reformulation] | None:
        """The cached plan for ``query``, re-expressed in its variables.

        Returns ``None`` (and counts a miss) when no current entry
        exists.  Alpha-variants of a cached query hit the same entry;
        lookups under the same variable names get a fresh list of the
        same (immutable) :class:`Reformulation` objects.
        """
        canonical, inverse = canonicalize_query(query)
        key = (canonical, max_hops, include_original)
        entry = self._entries.get(key)
        if entry is not None and not self.clock.is_current(entry.snapshot):
            # Lazy backstop: the clock moved while we were not looking
            # (e.g. events fired before this cache subscribed).
            self._drop(key)
            entry = None
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._entries.move_to_end(key)
        names = tuple(inverse.items())
        if entry.renamed is None or entry.renamed[0] != names:
            entry.renamed = (names, [
                Reformulation(rename_query(r.query, inverse), r.path)
                for r in entry.reformulations
            ])
        return list(entry.renamed[1])

    def store(self, query: ConjunctiveQuery, max_hops: int,
              reformulations: list[Reformulation],
              include_original: bool = True) -> None:
        """Cache a freshly planned reformulation set for ``query``."""
        if self.capacity <= 0:
            return
        canonical, inverse = canonicalize_query(query)
        forward = {original: can for can, original in inverse.items()}
        canonical_plan = [
            Reformulation(rename_query(r.query, forward), r.path)
            for r in reformulations
        ]
        depends_on = set(query_schemas(canonical))
        for reformulation in canonical_plan:
            depends_on |= query_schemas(reformulation.query)
        key = (canonical, max_hops, include_original)
        if key in self._entries:
            self._drop(key)
        self._entries[key] = _Entry(
            canonical_plan, depends_on, self.clock.snapshot(depends_on)
        )
        for schema in depends_on:
            self._by_schema.setdefault(schema, set()).add(key)
        self.stats.stores += 1
        while len(self._entries) > self.capacity:
            evicted, entry = self._entries.popitem(last=False)
            self._unindex(evicted, entry)
            self.stats.evictions += 1

    # -- invalidation ---------------------------------------------------

    def _on_schema_bumped(self, schema: str) -> None:
        """Clock listener: drop every entry depending on ``schema``."""
        for key in list(self._by_schema.get(schema, ())):
            self._drop(key)
            self.stats.invalidations += 1

    def invalidate_all(self) -> None:
        """Drop every entry (e.g. after an out-of-band graph rebuild)."""
        count = len(self._entries)
        self._entries.clear()
        self._by_schema.clear()
        self.stats.invalidations += count

    def _drop(self, key: _Key) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._unindex(key, entry)

    def _unindex(self, key: _Key, entry: _Entry) -> None:
        for schema in entry.depends_on:
            keys = self._by_schema.get(schema)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_schema[schema]
