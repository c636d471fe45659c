"""Per-peer data synopses and their merge semantics.

A :class:`PeerSynopsis` is the frozen, compact *digest* a peer
disseminates: per-predicate counts, distinct-value counts, a top-k
object-value sketch, and the active mapping edges stored at the peer.
:func:`digest_triples` counts it from a store's triples in one
grouping pass, on demand — nothing is maintained on insert or delete,
so a digest is a function of the stored set and a monotone version
counter alone (``TripleStore.version`` plus the peer's mapping
changes).

Digests are merged per peer with a last-writer-wins rule keyed on the
version counter (ties broken by total field order), which makes
:meth:`SynopsisRegistry.merge` **commutative, idempotent and
associative** — any gossip schedule converges to the same registry.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Collection, Iterable
from dataclasses import dataclass

from repro.rdf.terms import URI
from repro.rdf.triples import Triple

#: top-k size of the object-value sketch in disseminated digests
DEFAULT_TOP_K = 4


@dataclass(frozen=True, order=True)
class PredicateDigest:
    """Summary of one predicate's extent at one peer.

    ``top_objects`` is the frequency sketch: the ``k`` most common
    object values with their multiplicities, sorted by descending
    count (value string as tie-break).
    """

    predicate: str
    triples: int
    distinct_subjects: int
    distinct_objects: int
    top_objects: tuple[tuple[str, int], ...] = ()

    @property
    def top_mass(self) -> int:
        """Triples covered by the sketch's values."""
        return sum(count for _value, count in self.top_objects)


@dataclass(frozen=True, order=True)
class MappingEdge:
    """One active schema-mapping edge stored at the digesting peer."""

    source: str
    target: str
    confidence: float


@dataclass(frozen=True, order=True)
class PeerSynopsis:
    """The versioned, frozen digest one peer disseminates.

    ``version`` increases monotonically with every local mutation
    (triple insert/delete, mapping record change), so a receiver can
    replace a stale digest for the same peer without coordination.

    ``path`` is the digesting peer's trie prefix ``pi(p)``.  It lets
    an estimator decide whether the digests it knows *cover the whole
    key space*: only then is a predicate's absence from every digest
    evidence of emptiness rather than of gossip that has not arrived
    yet.  The empty string means "path unknown" (never authoritative).
    """

    peer_id: str
    version: int
    triples: int
    predicates: tuple[PredicateDigest, ...] = ()
    mappings: tuple[MappingEdge, ...] = ()
    path: str = ""

    def predicate(self, name: str) -> PredicateDigest | None:
        """Look up one predicate's digest entry."""
        for digest in self.predicates:
            if digest.predicate == name:
                return digest
        return None


def digest_triples(triples: Collection[Triple], peer_id: str, version: int,
                   mappings: Iterable[MappingEdge] = (),
                   path: str = "") -> PeerSynopsis:
    """The digest of a store holding ``triples`` (distinct), in one
    grouping pass: per predicate its triple count, distinct subject
    and object values, and the :data:`DEFAULT_TOP_K` most common
    object values.

    Values are counted by their strings, so a URI and a literal with
    the same text count as one value.  The digest depends on the set
    of triples only, not on their order.

    >>> from repro.rdf.terms import URI, Literal
    >>> t = Triple(URI("a"), URI("S#p"), Literal("x"))
    >>> digest_triples([t], "n0", version=1).predicate("S#p").triples
    1
    """
    # Predicates are interned URIs, one per value: grouping by the
    # term groups by its value.  Per predicate: its subject values and
    # a count per object value.
    by_predicate: dict[URI, tuple[set[str], dict[str, int]]] = {}
    for triple in triples:
        predicate = triple.predicate
        entry = by_predicate.get(predicate)
        if entry is None:
            entry = by_predicate[predicate] = (set(), {})
        entry[0].add(triple.subject.value)
        objects = entry[1]
        value = triple.object.value
        objects[value] = objects.get(value, 0) + 1
    predicates = []
    for predicate, (subjects, objects) in sorted(
            by_predicate.items(), key=lambda item: item[0].value):
        ranked = sorted(objects.items(), key=lambda item: (-item[1], item[0]))
        predicates.append(PredicateDigest(
            predicate=predicate.value,
            triples=sum(objects.values()),
            distinct_subjects=len(subjects),
            distinct_objects=len(objects),
            top_objects=tuple(ranked[:DEFAULT_TOP_K]),
        ))
    return PeerSynopsis(
        peer_id=peer_id,
        version=version,
        triples=len(triples),
        predicates=tuple(predicates),
        mappings=tuple(sorted(mappings)),
        path=path,
    )


def mapping_edges(mappings: Iterable) -> list[MappingEdge]:
    """Digest entries for the *active* mappings of a peer's registry."""
    return [
        MappingEdge(m.source_schema, m.target_schema, m.confidence)
        for m in mappings
        if m.active
    ]


def predicate_of(term) -> str | None:
    """The digest key of a pattern's predicate (``None`` if variable)."""
    return term.value if isinstance(term, URI) else None


class SynopsisRegistry:
    """What one peer knows about everyone's synopses.

    A state-based CRDT: per peer the digest with the highest
    ``(version, payload)`` order wins, so merging is commutative,
    idempotent and associative regardless of gossip schedule.
    """

    def __init__(self) -> None:
        self._by_peer: dict[str, PeerSynopsis] = {}
        #: known peer ids, sorted.  A merge that learns a new peer
        #: inserts it in place and nothing ever re-sorts, so no reader
        #: may hold this list across a merge; a replaced digest, or the
        #: identical object re-delivered, leaves it as it is.  Gossip
        #: reads it as at most two slices (:meth:`window`).
        self._order: list[str] = []
        #: bumped whenever a digest is accepted (estimator cache key)
        self.updates = 0

    def __len__(self) -> int:
        return len(self._by_peer)

    def __contains__(self, peer_id: str) -> bool:
        return peer_id in self._by_peer

    def get(self, peer_id: str) -> PeerSynopsis | None:
        """The newest known digest of ``peer_id``, if any."""
        return self._by_peer.get(peer_id)

    def peer_ids(self) -> list[str]:
        """Known peers, sorted (a copy: the registry's own order is
        updated in place by every merge that learns a new peer)."""
        return list(self._order)

    def digests(self) -> list[PeerSynopsis]:
        """All known digests in sorted peer order."""
        by_peer = self._by_peer
        return [by_peer[p] for p in self._order]

    def window(self, cursor: int, size: int,
               skip: str) -> list[PeerSynopsis]:
        """``min(size, known)`` digests in sorted peer order, starting
        at position ``cursor % known`` and wrapping around — at most
        two slices of the order, so O(size) however many peers the
        registry knows.  ``skip`` (the gossiping peer's own id) is left
        out of the order first, if present.
        """
        by_peer = self._by_peer
        order = self._order
        if skip in by_peer:
            # Only a digest registered by hand puts a peer in its own
            # registry (``merge`` callers pass their id as ``skip``).
            order = [p for p in order if p != skip]
        known = len(order)
        take = min(size, known)
        if take <= 0:
            return []
        start = cursor % known
        end = start + take
        if end <= known:
            return [by_peer[p] for p in order[start:end]]
        return ([by_peer[p] for p in order[start:]]
                + [by_peer[p] for p in order[:end - known]])

    def register(self, digest: PeerSynopsis) -> bool:
        """Merge one digest; returns True if it replaced older state.

        >>> r = SynopsisRegistry()
        >>> r.register(PeerSynopsis("n0", version=1, triples=3))
        True
        >>> r.register(PeerSynopsis("n0", version=1, triples=3))
        False
        """
        return self.merge((digest,)) == 1

    def merge(self, digests: Iterable[PeerSynopsis],
              skip: str | None = None) -> int:
        """Merge many digests, leaving out any of peer ``skip``;
        returns how many were accepted.

        Most gossip re-delivers the very object already held, so that
        is checked first.  Otherwise the total order on ``(version,
        payload)`` picks a deterministic winner for any merge order,
        idempotent on equal digests: the version compare decides
        almost every case, and only a version tie between distinct
        objects pays for the payload comparison.
        """
        by_peer = self._by_peer
        accepted = 0
        for digest in digests:
            peer_id = digest.peer_id
            if peer_id == skip:
                continue
            current = by_peer.get(peer_id)
            if current is digest:
                continue
            if current is None:
                insort(self._order, peer_id)
            elif current.version > digest.version or (
                    current.version == digest.version
                    and current >= digest):
                continue
            by_peer[peer_id] = digest
            accepted += 1
        self.updates += accepted
        return accepted
