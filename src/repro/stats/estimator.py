"""Network-wide cardinality estimation over a synopsis registry.

Each triple is published under three keys and replicated, so a naive
sum over per-peer counts would overcount by the index fan-out times
the replication factor.  The estimator instead aggregates with
**max**: the peer responsible for ``Hash(predicate)`` stores *every*
triple of that predicate under the predicate key, so the per-peer
maximum is a tight estimate of the predicate's true extent (off only
by the few same-predicate triples that land on the owner through
subject/object keys).  The same argument covers distinct counts and
the top-k object sketch.

Absence of evidence is handled explicitly: digests carry the
digesting peer's trie path, and only when the known paths **cover the
whole key space** (every key has a known responsible peer) does a
predicate missing from every digest count as evidence of emptiness
(``0.0``).  With partial coverage the missing digest might simply not
have gossiped in yet, so the estimate is ``None`` — and callers must
treat ``None`` as "no statistics" and fall back to static heuristics
rather than prune results away on ignorance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rdf.patterns import TriplePattern
from repro.rdf.terms import Literal, is_ground
from repro.rdf.triples import Position
from repro.stats.synopsis import PeerSynopsis, SynopsisRegistry, predicate_of

#: how many sketch values survive cross-peer aggregation
_AGGREGATE_TOP_K = 8

#: selectivity assumed for a ``%needle%`` literal against the
#: residual (non-sketched) extent of a predicate
_LIKE_RESIDUAL_SELECTIVITY = 0.5


def _paths_cover_key_space(paths: set[str]) -> bool:
    """Whether a set of trie prefixes covers every possible key.

    A peer with path ``p`` is responsible for all keys extending
    ``p``, so the space is covered when every binary string has some
    known path as a prefix.

    >>> _paths_cover_key_space({"0", "10", "11"})
    True
    >>> _paths_cover_key_space({"0", "10"})
    False
    """
    if not paths:
        return False

    def covered(bits: str) -> bool:
        if any(bits.startswith(p) for p in paths):
            return True  # a known peer owns this whole subtree
        if not any(p.startswith(bits) for p in paths):
            return False  # no known peer anywhere below
        return covered(bits + "0") and covered(bits + "1")

    return covered("")


@dataclass
class PredicateEstimate:
    """Aggregated view of one predicate across all known peers."""

    predicate: str
    triples: int = 0
    distinct_subjects: int = 0
    distinct_objects: int = 0
    #: object value -> max observed multiplicity
    top_objects: dict[str, int] = field(default_factory=dict)

    @property
    def top_mass(self) -> int:
        return sum(self.top_objects.values())


class CardinalityEstimator:
    """Pattern/query cardinality estimates from known peer digests.

    ``extra`` digests (typically the estimating peer's own fresh
    synopsis) are folded in without mutating the shared registry.
    The aggregate is cached and rebuilt only when the registry
    changed.
    """

    def __init__(self, registry: SynopsisRegistry,
                 extra: list[PeerSynopsis] | None = None) -> None:
        self.registry = registry
        self.extra = extra or []
        self._cache_key: tuple | None = None
        self._predicates: dict[str, PredicateEstimate] = {}
        #: (source, target) -> max confidence over active known edges
        self._edges: dict[tuple[str, str], float] = {}
        self._full_coverage = False

    # -- aggregation ---------------------------------------------------

    def _refresh(self) -> None:
        key = (self.registry.updates,
               tuple((d.peer_id, d.version) for d in self.extra))
        if key == self._cache_key:
            return
        self._cache_key = key
        predicates: dict[str, PredicateEstimate] = {}
        edges: dict[tuple[str, str], float] = {}
        for synopsis in self.registry.digests() + self.extra:
            for digest in synopsis.predicates:
                agg = predicates.get(digest.predicate)
                if agg is None:
                    agg = PredicateEstimate(digest.predicate)
                    predicates[digest.predicate] = agg
                agg.triples = max(agg.triples, digest.triples)
                agg.distinct_subjects = max(agg.distinct_subjects,
                                            digest.distinct_subjects)
                agg.distinct_objects = max(agg.distinct_objects,
                                           digest.distinct_objects)
                for value, count in digest.top_objects:
                    agg.top_objects[value] = max(
                        agg.top_objects.get(value, 0), count)
            for edge in synopsis.mappings:
                pair = (edge.source, edge.target)
                edges[pair] = max(edges.get(pair, 0.0), edge.confidence)
        for agg in predicates.values():
            ranked = sorted(agg.top_objects.items(),
                            key=lambda item: (-item[1], item[0]))
            agg.top_objects = dict(ranked[:_AGGREGATE_TOP_K])
        self._predicates = predicates
        self._edges = edges
        paths = {s.path for s in self.registry.digests() + self.extra
                 if s.path}
        self._full_coverage = _paths_cover_key_space(paths)

    # -- introspection -------------------------------------------------

    def full_coverage(self) -> bool:
        """Whether the known digests' paths cover the whole key space.

        Only then is "no digest mentions predicate X" evidence that X
        is empty — the responsible peer is among the digests and did
        not report it.  With partial coverage, absence may just be
        gossip that has not arrived, and estimates stay ``None``.
        """
        self._refresh()
        return self._full_coverage

    def known_peers(self) -> int:
        """Digests contributing to the aggregate."""
        ids = set(self.registry.peer_ids())
        ids.update(s.peer_id for s in self.extra)
        return len(ids)

    def predicate_estimate(self, predicate: str) -> PredicateEstimate | None:
        """Aggregated stats of one predicate (``None`` if unknown)."""
        self._refresh()
        return self._predicates.get(predicate)

    def predicates(self) -> list[PredicateEstimate]:
        """All aggregated predicate estimates, sorted by name."""
        self._refresh()
        return [self._predicates[p] for p in sorted(self._predicates)]

    def schema_cardinality(self, schema: str) -> float:
        """Estimated triples stored under any of a schema's predicates."""
        self._refresh()
        prefix = f"{schema}#"
        return float(sum(
            est.triples for name, est in self._predicates.items()
            if name.startswith(prefix)
        ))

    def mapping_edges(self, source: str) -> list[tuple[str, float]]:
        """Known active mapping edges out of ``source`` (target, conf)."""
        self._refresh()
        return sorted(
            (target, confidence)
            for (src, target), confidence in self._edges.items()
            if src == source
        )

    def known_edge_count(self) -> int:
        """Distinct active mapping edges known across all digests."""
        self._refresh()
        return len(self._edges)

    # -- pattern / query estimates -------------------------------------

    def pattern_cardinality(self, pattern: TriplePattern) -> float | None:
        """Estimated matching-triple count of one pattern.

        ``None`` means the statistics cannot say (predicate unknown
        and coverage incomplete — callers fall back to static
        heuristics); ``0.0`` means they positively suggest an empty
        extent, which requires :meth:`full_coverage`.
        """
        self._refresh()
        predicate = predicate_of(pattern.predicate)
        if predicate is None:
            # Variable predicate: the whole known corpus bounds it.
            total = sum(e.triples for e in self._predicates.values())
            return float(total) if self._predicates else None
        est = self._predicates.get(predicate)
        if est is None:
            return 0.0 if self._full_coverage else None
        cardinality = float(est.triples)
        subject = pattern.at(Position.SUBJECT)
        if is_ground(subject):
            cardinality /= max(1, est.distinct_subjects)
        obj = pattern.at(Position.OBJECT)
        if is_ground(obj):
            cardinality = min(cardinality,
                              self._object_estimate(est, obj))
        return cardinality

    def _object_estimate(self, est: PredicateEstimate, obj) -> float:
        """Matching triples for one constant/LIKE object constraint."""
        residual = max(0, est.triples - est.top_mass)
        residual_values = max(
            0, est.distinct_objects - len(est.top_objects))
        if isinstance(obj, Literal) and obj.is_like_pattern:
            needle = obj.value.strip("%")
            sketched = sum(count for value, count in est.top_objects.items()
                           if needle in value)
            return sketched + residual * _LIKE_RESIDUAL_SELECTIVITY
        if isinstance(obj, Literal) and obj.is_prefix_pattern:
            needle = obj.prefix_needle
            sketched = sum(count for value, count in est.top_objects.items()
                           if value.startswith(needle))
            return sketched + residual * _LIKE_RESIDUAL_SELECTIVITY
        value = obj.value
        if value in est.top_objects:
            return float(est.top_objects[value])
        if residual_values == 0:
            # Every distinct value is sketched and this one is absent.
            return 0.0
        return residual / residual_values

    def query_cardinality(self, query) -> float | None:
        """Estimated result rows of a conjunctive query.

        The join of all patterns cannot produce more rows than its
        most selective member feeds in (equi-joins on shared
        variables), so the minimum pattern estimate is the bound used.
        ``None`` when no pattern is estimable.
        """
        estimates = [self.pattern_cardinality(p) for p in query.patterns]
        known = [e for e in estimates if e is not None]
        if not known:
            return None
        return min(known)
