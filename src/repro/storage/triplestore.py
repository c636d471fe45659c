"""The per-peer triple database: a copy table, indexed on demand.

Triples are indexed on subject, predicate *and* object so that a
constraint search on any position is an index probe, mirroring the
three overlay-level keys each triple is published under.  Pattern
evaluation follows the paper's local plan:

    Results = pi_pos(x) sigma_pos(const)=const (DB_dest)

i.e. probe the most selective available index, then run the pattern's
prepared scan over the bucket: one set-at-a-time pass that filters the
remaining constants (including LIKE literals) and projects the variable
positions into row tuples.

Loading and querying are separate phases: a write only counts copies,
and each positional index is built by one bulk pass the first time a
probe needs it.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice
from operator import attrgetter

from repro.rdf.patterns import TriplePattern
from repro.rdf.terms import GroundTerm
from repro.rdf.triples import Position, Triple
from repro.stats.synopsis import MappingEdge, PeerSynopsis, digest_triples

#: the term of a triple at each position, as a C-level getter
_TERM_AT = {pos: attrgetter(pos.value) for pos in Position}


class TripleStore:
    """An in-memory triple table with per-position indexes built on
    first use.

    It is the positional index of a peer's key-addressed bucket store,
    which holds a triple once per key it lands under (and again if it
    is published again): :meth:`add` and :meth:`remove` count those
    copies in one table, and a triple is stored from its first copy to
    its last.  A write does nothing else but bump :attr:`version` —
    once per first copy, once per last copy removed, once per
    :meth:`clear` — so an upload pays for no structure it does not
    read.  :meth:`add` takes a whole key group of a write (the triples
    one peer stores under one key); applied as groups or one triple at
    a time, the same triples leave the same copies, version and rows.
    Triples are interned, so every probe and copy count hashes by
    identity.

    A positional index (term -> bucket) is built by one pass over the
    copy table the first time a probe needs its position (``match``,
    ``by_position``); from then on every write keeps that position up
    to date through the same indexing routine, while positions no
    probe needed stay unbuilt.  The statistics digest
    (:meth:`digest`) is one grouping pass over the copy table and
    builds no index.

    Index buckets are list-backed and served in *sorted order*:
    pattern matching iterates buckets directly, and with limit
    pushdown truncating result streams the iteration order is
    semantics — hash-set buckets would make the first-N rows vary
    with the process's hash seed.  Sorting is lazy (append on insert,
    sort on the first probe after a mutation), so bulk builds stay
    O(N) and the O(k log k) ordering cost is paid once per mutated
    bucket rather than per insert or per match.

    >>> store = TripleStore()
    >>> from repro.rdf.terms import URI, Literal
    >>> store.add(Triple(URI("s"), URI("p"), Literal("o")))
    True
    >>> store.count(), store.version
    (1, 1)
    """

    def __init__(self) -> None:
        #: stored copies per triple, one per bucket-store entry
        self._copies: dict[Triple, int] = {}
        #: bumped on every change to the stored triples; feeds the
        #: digest version
        self.version = 0
        #: the built positions only: position -> term -> bucket
        self._index: dict[Position, dict[GroundTerm, list[Triple]]] = {}
        #: per built position, the terms whose bucket was appended to
        #: since its last sort (a one-triple bucket is sorted as created)
        self._unsorted: dict[Position, set[GroundTerm]] = {}

    # -- mutation ------------------------------------------------------

    def add(self, *triples: Triple) -> bool:
        """Record one stored copy of each of ``triples`` — a key group,
        in order; True when some triple got its first copy.

        First copies advance the version (one step each) and enter the
        built indexes; a triple's later copies (within the group too)
        only count.  ``add(t)`` is the one-element group.
        """
        copies = self._copies
        before = len(copies)
        for triple in triples:
            copies[triple] = copies.get(triple, 0) + 1
        fresh = len(copies) - before
        if not fresh:
            return False
        self.version += fresh
        if self._index:
            # The first copies are the table's last ``fresh`` keys.
            new = list(islice(reversed(copies), fresh))
            for pos in self._index:
                self._insert(pos, new)
        return True

    def remove(self, triple: Triple) -> bool:
        """Drop one stored copy of a triple; True when its last copy
        goes, leaving the table and the built indexes."""
        copies = self._copies
        held = copies.get(triple)
        if held is None:
            return False
        if held > 1:
            copies[triple] = held - 1
            return False
        del copies[triple]
        self.version += 1
        for pos, index in self._index.items():
            term = _TERM_AT[pos](triple)
            bucket = index[term]
            # Indexed once per triple, so exactly one entry exists; a
            # linear remove keeps relative order (and therefore
            # sortedness) intact.
            bucket.remove(triple)
            if not bucket:
                del index[term]
                self._unsorted[pos].discard(term)
        return True

    def clear(self) -> None:
        """Drop everything (the built indexes too)."""
        self._copies.clear()
        self.version += 1
        self._index.clear()
        self._unsorted.clear()

    # -- indexing --------------------------------------------------------

    def _insert(self, pos: Position, triples: Iterable[Triple]) -> None:
        """Index ``triples`` at the built position ``pos`` — the one
        indexing routine, for a bulk build and for later writes."""
        index = self._index[pos]
        unsorted_ = self._unsorted[pos]
        term_at = _TERM_AT[pos]
        for triple in triples:
            term = term_at(triple)
            bucket = index.get(term)
            if bucket is None:
                index[term] = [triple]
            else:
                bucket.append(triple)
                unsorted_.add(term)

    def _position(self, pos: Position) -> dict[GroundTerm, list[Triple]]:
        """The index at ``pos``, built by one pass over the copy table
        the first time it is needed."""
        index = self._index.get(pos)
        if index is None:
            index = self._index[pos] = {}
            self._unsorted[pos] = set()
            self._insert(pos, self._copies)
        return index

    # -- lookups --------------------------------------------------------

    def count(self) -> int:
        """Number of distinct stored triples."""
        return len(self._copies)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._copies

    def all_triples(self) -> list[Triple]:
        """All triples, sorted for deterministic output."""
        return sorted(self._copies, key=Triple.sort_key)

    def by_position(self, position: Position, term: GroundTerm) -> set[Triple]:
        """Index probe: triples whose ``position`` equals ``term``."""
        return set(self._position(position).get(term, ()))

    def digest(self, peer_id: str, version: int | None = None,
               mappings: Iterable[MappingEdge] = (),
               path: str = "") -> PeerSynopsis:
        """The stored triples' statistics digest (see
        :func:`~repro.stats.synopsis.digest_triples`); ``version``
        defaults to the store's own."""
        return digest_triples(
            self._copies, peer_id,
            self.version if version is None else version,
            mappings=mappings, path=path)

    # -- pattern evaluation -----------------------------------------------

    def _candidates(self, probes: Iterable[tuple[Position, GroundTerm]]
                    ) -> list[Triple]:
        """Smallest index bucket among a pattern's exact constants.

        Always yields triples in sorted order: the chosen bucket is
        sorted on demand, and the no-exact-constant fallback sorts the
        full table (such patterns are unroutable and never reach the
        distributed search path, so the fallback is cold).  A constant
        nothing is stored under matches nothing, so the probe stops
        there without building the positions after it.
        """
        best: list[Triple] | None = None
        for pos, term in probes:
            bucket = self._position(pos).get(term)
            if bucket is None:
                return []
            if best is None or len(bucket) < len(best):
                best, best_pos, best_term = bucket, pos, term
        if best is None:
            return sorted(self._copies, key=Triple.sort_key)
        unsorted_ = self._unsorted[best_pos]
        if best_term in unsorted_:
            best.sort(key=Triple.sort_key)
            unsorted_.discard(best_term)
        return best

    def match(self, pattern: TriplePattern) -> list[tuple]:
        """All rows of ``pattern`` against the store.

        A row is the tuple of the matched triple's terms at the
        pattern's variable positions, in ``pattern.schema`` order.
        Patterns with no variables return ``[()]`` when a matching
        triple exists (boolean semantics) and ``[]`` otherwise.

        Rows come back in sorted-triple order (see the class
        docstring), first occurrence of each: with limit pushdown
        truncating result streams, iteration order is semantics now,
        not cosmetics.
        """
        _schema, probes, scan, distinct = pattern.prepared()
        rows = scan(self._candidates(probes))
        if not distinct and len(rows) > 1:
            # LIKE / prefix matches may repeat a row; the row is its
            # own identity.
            rows = list(dict.fromkeys(rows))
        return rows
