"""Per-peer data synopses and their merge semantics.

Two layers:

* :class:`StoreSynopsis` — the *builder* a
  :class:`~repro.storage.triplestore.TripleStore` maintains
  incrementally on every insert/delete.  It keeps exact per-predicate
  value multisets (cheap at simulation scale) so deletions are the
  precise inverse of insertions, and a monotone version counter.
* :class:`PeerSynopsis` — the frozen, compact *digest* a peer
  disseminates: per-predicate counts, distinct-value counts, a top-k
  object-value sketch, and the active mapping edges stored at the
  peer.

Digests are merged per peer with a last-writer-wins rule keyed on the
version counter (ties broken by total field order), which makes
:meth:`SynopsisRegistry.register` **commutative, idempotent and
associative** — any gossip schedule converges to the same registry.
"""

from __future__ import annotations

from collections.abc import Iterable
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


class _PredicateAccumulator:
    """Exact per-predicate counters (builder side)."""

    __slots__ = ("triples", "subjects", "objects")

    def __init__(self) -> None:
        self.triples = 0
        #: value string -> multiplicity
        self.subjects: dict[str, int] = {}
        self.objects: dict[str, int] = {}

    def add(self, subject: str, obj: str) -> None:
        self.triples += 1
        self.subjects[subject] = self.subjects.get(subject, 0) + 1
        self.objects[obj] = self.objects.get(obj, 0) + 1

    def remove(self, subject: str, obj: str) -> None:
        self.triples -= 1
        for counter, value in ((self.subjects, subject),
                               (self.objects, obj)):
            left = counter.get(value, 0) - 1
            if left > 0:
                counter[value] = left
            else:
                counter.pop(value, None)

    def digest(self, predicate: str, top_k: int) -> PredicateDigest:
        ranked = sorted(self.objects.items(),
                        key=lambda item: (-item[1], item[0]))
        return PredicateDigest(
            predicate=predicate,
            triples=self.triples,
            distinct_subjects=len(self.subjects),
            distinct_objects=len(self.objects),
            top_objects=tuple(ranked[:top_k]),
        )


class StoreSynopsis:
    """Incrementally maintained statistics of one triple store.

    :meth:`add` and :meth:`remove` are exact inverses: removing a
    previously added triple restores the prior digest bit for bit
    (the version counter still advances — versions record mutation
    *history*, not state).

    >>> from repro.rdf.terms import URI, Literal
    >>> s = StoreSynopsis()
    >>> s.add(Triple(URI("a"), URI("S#p"), Literal("x")))
    >>> s.digest(peer_id="n0").predicate("S#p").triples
    1
    """

    def __init__(self) -> None:
        #: bumped on every mutation; feeds the digest version
        self.version = 0
        self._by_predicate: dict[str, _PredicateAccumulator] = {}
        self._triples = 0

    # -- mutation ------------------------------------------------------

    def add(self, triple: Triple) -> None:
        """Account for one inserted triple."""
        self.version += 1
        self._triples += 1
        predicate = triple.predicate.value
        acc = self._by_predicate.get(predicate)
        if acc is None:
            acc = _PredicateAccumulator()
            self._by_predicate[predicate] = acc
        # Inlined ``acc.add(...)``: this runs once per stored triple
        # per replica on every deployment build.
        acc.triples += 1
        subject = triple.subject.value
        subjects = acc.subjects
        subjects[subject] = subjects.get(subject, 0) + 1
        obj = triple.object.value
        objects = acc.objects
        objects[obj] = objects.get(obj, 0) + 1

    def remove(self, triple: Triple) -> None:
        """Account for one deleted triple (inverse of :meth:`add`)."""
        self.version += 1
        self._triples -= 1
        predicate = triple.predicate.value
        acc = self._by_predicate.get(predicate)
        if acc is None:
            return
        acc.remove(triple.subject.value, triple.object.value)
        if acc.triples <= 0:
            del self._by_predicate[predicate]

    def clear(self) -> None:
        """Forget everything (store was cleared)."""
        self.version += 1
        self._triples = 0
        self._by_predicate.clear()

    # -- digesting -----------------------------------------------------

    def count(self) -> int:
        """Number of accounted triples."""
        return self._triples

    def digest(self, peer_id: str, version: int | None = None,
               mappings: Iterable[MappingEdge] = (),
               top_k: int = DEFAULT_TOP_K,
               path: str = "") -> PeerSynopsis:
        """Freeze the current state into a disseminable digest.

        ``version`` defaults to the builder's own counter; peers that
        fold additional state into the digest (mapping edges, their
        trie ``path``) pass a combined monotone version instead.
        """
        return PeerSynopsis(
            peer_id=peer_id,
            version=self.version if version is None else version,
            triples=self._triples,
            predicates=tuple(
                acc.digest(predicate, top_k)
                for predicate, acc in sorted(self._by_predicate.items())
            ),
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
        #: sorted peer ids, cached until a new peer id registers
        self._order: list[str] | None = None
        #: bumped whenever a digest is accepted (estimator cache key)
        self.updates = 0

    def __len__(self) -> int:
        return len(self._by_peer)

    def __contains__(self, peer_id: str) -> bool:
        return peer_id in self._by_peer

    def get(self, peer_id: str) -> PeerSynopsis | None:
        """The newest known digest of ``peer_id``, if any."""
        return self._by_peer.get(peer_id)

    def peer_order(self) -> list[str]:
        """Known peers, sorted — the registry's own cached list, which
        callers must not mutate (:meth:`peer_ids` returns a copy).

        Replacing a known peer's digest keeps the order, so gossip
        (one call per maintenance message) sorts only when the
        registry learns of a new peer.
        """
        order = self._order
        if order is None:
            order = self._order = sorted(self._by_peer)
        return order

    def peer_ids(self) -> list[str]:
        """Known peers, sorted."""
        return list(self.peer_order())

    def digests(self) -> list[PeerSynopsis]:
        """All known digests in sorted peer order."""
        return [self._by_peer[p] for p in self.peer_order()]

    def register(self, digest: PeerSynopsis) -> bool:
        """Merge one digest; returns True if it replaced older state.

        >>> r = SynopsisRegistry()
        >>> r.register(PeerSynopsis("n0", version=1, triples=3))
        True
        >>> r.register(PeerSynopsis("n0", version=1, triples=3))
        False
        """
        current = self._by_peer.get(digest.peer_id)
        if current is not None:
            # Total order on (version, payload): deterministic winner
            # for any merge order, idempotent on equal digests.  The
            # version compare decides almost every gossip re-merge in
            # O(1); only a genuine version tie between distinct digest
            # objects pays for the payload comparison.
            if current.version > digest.version:
                return False
            if current.version == digest.version and (
                    current is digest or current >= digest):
                return False
        else:
            self._order = None
        self._by_peer[digest.peer_id] = digest
        self.updates += 1
        return True

    def merge(self, digests: Iterable[PeerSynopsis]) -> int:
        """Merge many digests; returns how many were accepted."""
        return sum(1 for d in digests if self.register(d))
