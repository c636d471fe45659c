"""The per-peer triple database with three positional hash indexes.

Triples are indexed on subject, predicate *and* object so that a
constraint search on any position is an index probe, mirroring the
three overlay-level keys each triple is published under.  Pattern
evaluation follows the paper's local plan:

    Results = pi_pos(x) sigma_pos(const)=const (DB_dest)

i.e. probe the most selective available index, then run the pattern's
prepared scan over the bucket: one set-at-a-time pass that filters the
remaining constants (including LIKE literals) and projects the variable
positions into row tuples.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.rdf.patterns import TriplePattern
from repro.rdf.terms import GroundTerm
from repro.rdf.triples import ALL_POSITIONS, Position, Triple
from repro.stats.synopsis import StoreSynopsis


class TripleStore:
    """An in-memory triple table with per-position indexes.

    It is the positional index of a peer's key-addressed bucket store,
    which holds a triple once per key it lands under (and again if it
    is published again): :meth:`add` and :meth:`remove` count those
    copies, and a triple is indexed (and counted by the synopsis) from
    its first copy to its last.  :meth:`add` takes a whole key group of
    a write — the triples one peer stores under one key — and updates
    the synopsis once for it; applied as groups or one triple at a
    time, the same triples leave the same copies, bucket order and
    synopsis.  Triples are interned, so every probe and copy count
    hashes by identity.

    Index buckets are list-backed and served in *sorted order*:
    pattern matching iterates buckets directly, and with limit
    pushdown truncating result streams the iteration order is
    semantics — hash-set buckets would make the first-N rows vary
    with the process's hash seed.  Sorting is lazy (append on insert,
    sort on the first probe after a mutation), so bulk loads stay
    O(N) and the O(k log k) ordering cost is paid once per mutated
    bucket rather than per insert or per match.

    >>> store = TripleStore()
    >>> from repro.rdf.terms import URI, Literal
    >>> store.add(Triple(URI("s"), URI("p"), Literal("o")))
    True
    >>> store.count()
    1
    """

    def __init__(self) -> None:
        #: stored copies per triple, one per bucket-store entry
        self._copies: dict[Triple, int] = {}
        self._index: dict[Position, dict[GroundTerm, list[Triple]]] = {
            pos: {} for pos in ALL_POSITIONS
        }
        #: per position, the terms whose bucket was appended to since
        #: its last sort (a one-triple bucket is sorted as created)
        self._unsorted: dict[Position, set[GroundTerm]] = {
            pos: set() for pos in ALL_POSITIONS
        }
        #: incrementally maintained statistics (per-predicate counts,
        #: distinct subjects/objects, top-k object sketch) — digested
        #: and disseminated by the statistics layer (:mod:`repro.stats`)
        self.synopsis = StoreSynopsis()

    # -- mutation ------------------------------------------------------

    def add(self, *triples: Triple) -> bool:
        """Record one stored copy of each of ``triples`` — a key group,
        in order; True when some triple got its first copy.

        First copies enter the indexes and, in one call for the whole
        group, the synopsis; a triple's later copies (within the group
        too) only count.  ``add(t)`` is the one-element group.
        """
        copies = self._copies
        fresh = []
        for triple in triples:
            held = copies.get(triple)
            if held is None:
                copies[triple] = 1
                fresh.append(triple)
            else:
                copies[triple] = held + 1
        if not fresh:
            return False
        self.synopsis.add(*fresh)
        by_subject, by_predicate, by_object = (
            self._index[pos] for pos in ALL_POSITIONS)
        unsorted_subjects, unsorted_predicates, unsorted_objects = (
            self._unsorted[pos] for pos in ALL_POSITIONS)
        # Unrolled over the three positions: this runs once per first
        # copy per replica on every deployment build.
        for triple in fresh:
            term = triple.subject
            bucket = by_subject.get(term)
            if bucket is None:
                by_subject[term] = [triple]
            else:
                bucket.append(triple)
                unsorted_subjects.add(term)
            term = triple.predicate
            bucket = by_predicate.get(term)
            if bucket is None:
                by_predicate[term] = [triple]
            else:
                bucket.append(triple)
                unsorted_predicates.add(term)
            term = triple.object
            bucket = by_object.get(term)
            if bucket is None:
                by_object[term] = [triple]
            else:
                bucket.append(triple)
                unsorted_objects.add(term)
        return True

    def remove(self, triple: Triple) -> bool:
        """Drop one stored copy of a triple; True when its last copy
        goes and it leaves the indexes and the synopsis."""
        copies = self._copies
        held = copies.get(triple)
        if held is None:
            return False
        if held > 1:
            copies[triple] = held - 1
            return False
        del copies[triple]
        self.synopsis.remove(triple)
        for pos in ALL_POSITIONS:
            term = triple.at(pos)
            bucket = self._index[pos].get(term)
            if bucket is not None:
                # Indexed once per triple, so exactly one entry exists;
                # a linear remove keeps relative order (and therefore
                # sortedness) intact.
                bucket.remove(triple)
                if not bucket:
                    del self._index[pos][term]
                    self._unsorted[pos].discard(term)
        return True

    def clear(self) -> None:
        """Drop everything."""
        self._copies.clear()
        self.synopsis.clear()
        for pos in ALL_POSITIONS:
            self._index[pos].clear()
            self._unsorted[pos].clear()

    # -- lookups --------------------------------------------------------

    def count(self) -> int:
        """Number of distinct stored triples."""
        return len(self._copies)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._copies

    def all_triples(self) -> list[Triple]:
        """All triples, sorted for deterministic output."""
        return sorted(self._copies)

    def by_position(self, position: Position, term: GroundTerm) -> set[Triple]:
        """Index probe: triples whose ``position`` equals ``term``."""
        return set(self._index[position].get(term, ()))

    # -- pattern evaluation -----------------------------------------------

    def _sorted_bucket(self, pos: Position,
                       term: GroundTerm) -> list[Triple]:
        """The index bucket at ``(pos, term)``, sorted (lazily)."""
        bucket = self._index[pos].get(term)
        if bucket is None:
            return []
        unsorted_ = self._unsorted[pos]
        if term in unsorted_:
            bucket.sort()
            unsorted_.discard(term)
        return bucket

    def _candidates(self, probes: Iterable[tuple[Position, GroundTerm]]
                    ) -> list[Triple]:
        """Smallest index bucket among a pattern's exact constants.

        Always yields triples in sorted order: the chosen bucket is
        sorted on demand, and the no-exact-constant fallback sorts the
        full table (such patterns are unroutable and never reach the
        distributed search path, so the fallback is cold).
        """
        best: tuple[Position, GroundTerm] | None = None
        best_size = 0
        index = self._index
        for pos, term in probes:
            size = len(index[pos].get(term, ()))
            if best is None or size < best_size:
                best = (pos, term)
                best_size = size
        if best is None:
            return sorted(self._copies)
        return self._sorted_bucket(*best)

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
