"""The directed graph of schemas and mappings.

This is the logical object whose connectivity §3.1 monitors.  The
graph is used in two places:

* *centrally* in tests, benches and the self-organization controller,
  where a :class:`MappingGraph` is reconstructed from records fetched
  through the overlay;
* *conceptually* in the distributed system, where no peer ever holds
  the full graph — each schema peer only knows its own in/out degree.

Besides adjacency bookkeeping it provides path search (for iterative
reformulation planning), mapping composition along a path, and simple
cycle enumeration (the raw material of the Bayesian deprecation
analysis).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.mapping.model import (
    MappingKind,
    PredicateCorrespondence,
    SchemaMapping,
)
from repro.rdf.terms import URI


class MappingGraph:
    """Directed multigraph: nodes are schema names, edges are mappings."""

    def __init__(self, mappings: Iterable[SchemaMapping] = ()) -> None:
        self._by_id: dict[str, SchemaMapping] = {}
        self._out: dict[str, set[str]] = {}  # schema -> mapping ids
        self._in: dict[str, set[str]] = {}
        for mapping in mappings:
            self.add(mapping)

    # -- mutation ------------------------------------------------------

    def add(self, mapping: SchemaMapping) -> None:
        """Insert (or overwrite by id) a mapping."""
        existing = self._by_id.get(mapping.mapping_id)
        if existing is not None:
            self.remove(mapping.mapping_id)
        self._by_id[mapping.mapping_id] = mapping
        self._out.setdefault(mapping.source_schema, set()).add(mapping.mapping_id)
        self._in.setdefault(mapping.target_schema, set()).add(mapping.mapping_id)
        # Make sure both endpoints exist as nodes.
        self._out.setdefault(mapping.target_schema, set())
        self._in.setdefault(mapping.source_schema, set())

    def add_schema(self, schema_name: str) -> None:
        """Register a schema node with no mappings yet."""
        self._out.setdefault(schema_name, set())
        self._in.setdefault(schema_name, set())

    def remove(self, mapping_id: str) -> SchemaMapping | None:
        """Delete a mapping by id; returns it (or None if absent)."""
        mapping = self._by_id.pop(mapping_id, None)
        if mapping is None:
            return None
        self._out.get(mapping.source_schema, set()).discard(mapping_id)
        self._in.get(mapping.target_schema, set()).discard(mapping_id)
        return mapping

    # -- lookups --------------------------------------------------------

    def get(self, mapping_id: str) -> SchemaMapping | None:
        """The mapping with this id, if present."""
        return self._by_id.get(mapping_id)

    def schemas(self) -> list[str]:
        """All schema nodes, sorted."""
        return sorted(self._out.keys() | self._in.keys())

    def mappings(self, include_deprecated: bool = False) -> list[SchemaMapping]:
        """All mappings (active only by default), sorted by id."""
        return sorted(
            (m for m in self._by_id.values()
             if include_deprecated or m.active),
            key=lambda m: m.mapping_id,
        )

    def outgoing(self, schema: str) -> list[SchemaMapping]:
        """Active mappings whose source is ``schema``."""
        return sorted(
            (self._by_id[mid] for mid in self._out.get(schema, ())
             if self._by_id[mid].active),
            key=lambda m: m.mapping_id,
        )

    def incoming(self, schema: str) -> list[SchemaMapping]:
        """Active mappings whose target is ``schema``."""
        return sorted(
            (self._by_id[mid] for mid in self._in.get(schema, ())
             if self._by_id[mid].active),
            key=lambda m: m.mapping_id,
        )

    def degree(self, schema: str) -> tuple[int, int]:
        """``(in_degree, out_degree)`` over active mappings — the pair
        each schema peer publishes to ``Hash(Domain)``."""
        return (len(self.incoming(schema)), len(self.outgoing(schema)))

    def degree_pairs(self) -> list[tuple[int, int]]:
        """Degree pairs of every schema (input to the ci indicator)."""
        return [self.degree(s) for s in self.schemas()]

    # -- paths ------------------------------------------------------------

    def find_paths(self, source: str, target: str,
                   max_hops: int = 6) -> list[list[SchemaMapping]]:
        """All simple mapping paths from ``source`` to ``target``.

        Depth-limited DFS over active mappings; paths visit each schema
        at most once.  Sorted by length then ids for determinism.
        """
        paths: list[list[SchemaMapping]] = []
        self._extend_paths(source, target, max_hops, {source}, [], paths)
        paths.sort(key=lambda p: (len(p), [m.mapping_id for m in p]))
        return paths

    # The two depth-first searches recurse through methods that take
    # their state as arguments: a nested function that calls itself
    # references its own closure cell, which makes every search cyclic
    # garbage.

    def _extend_paths(self, current: str, target: str, max_hops: int,
                      visited: set[str], trail: list[SchemaMapping],
                      paths: list[list[SchemaMapping]]) -> None:
        if len(trail) > max_hops:
            return
        if current == target and trail:
            paths.append(list(trail))
            return
        for mapping in self.outgoing(current):
            nxt = mapping.target_schema
            if nxt in visited:
                continue
            visited.add(nxt)
            trail.append(mapping)
            self._extend_paths(nxt, target, max_hops, visited, trail, paths)
            trail.pop()
            visited.discard(nxt)

    def reachable_schemas(self, source: str,
                          max_hops: int | None = None) -> set[str]:
        """Schemas reachable from ``source`` via active mappings (BFS)."""
        frontier = [source]
        seen = {source}
        hops = 0
        while frontier and (max_hops is None or hops < max_hops):
            next_frontier: list[str] = []
            for schema in frontier:
                for mapping in self.outgoing(schema):
                    if mapping.target_schema not in seen:
                        seen.add(mapping.target_schema)
                        next_frontier.append(mapping.target_schema)
            frontier = next_frontier
            hops += 1
        seen.discard(source)
        return seen

    # -- composition & cycles ------------------------------------------------

    @staticmethod
    def compose_correspondences(
        path: list[SchemaMapping],
    ) -> list[PredicateCorrespondence]:
        """Follow each head predicate through a chain of mappings.

        Returns end-to-end correspondences for the predicates that
        survive every hop; predicates falling out of the mapped set at
        any hop are dropped.  A subsumption anywhere in the chain makes
        the composed correspondence a subsumption (containment
        composes).  Works for cycles too (``source == target`` schema),
        which is what the Bayesian consistency check needs.
        """
        if not path:
            return []
        for first, second in zip(path, path[1:]):
            if first.target_schema != second.source_schema:
                raise ValueError("path mappings do not chain")
        composed: list[PredicateCorrespondence] = []
        head = path[0]
        for corr in head.correspondences:
            current: URI | None = corr.target
            kind = corr.kind
            for hop in path[1:]:
                assert current is not None
                nxt = hop.translate(current)
                if nxt is None:
                    current = None
                    break
                for hop_corr in hop.correspondences:
                    if hop_corr.source == current:
                        if hop_corr.kind is MappingKind.SUBSUMPTION:
                            kind = MappingKind.SUBSUMPTION
                        break
                current = nxt
            if current is not None:
                composed.append(
                    PredicateCorrespondence(corr.source, current, kind)
                )
        return composed

    @staticmethod
    def compose_path(path: list[SchemaMapping]) -> SchemaMapping | None:
        """Compose an *acyclic* mapping path into one end-to-end mapping
        (id ``"composed"``).

        Returns ``None`` when no predicate survives the whole chain.
        Raises :class:`ValueError` for cyclic paths (a mapping's
        endpoints must be distinct schemas); use
        :meth:`compose_correspondences` for cycle analysis.
        """
        composed = MappingGraph.compose_correspondences(path)
        if not composed:
            return None
        return SchemaMapping(
            "composed",
            path[0].source_schema,
            path[-1].target_schema,
            composed,
            provenance="auto",
        )

    def find_cycles(self, max_length: int = 4) -> list[list[SchemaMapping]]:
        """Simple directed cycles up to ``max_length`` mappings long.

        Each cycle is reported once, rooted at its lexicographically
        smallest schema.  These are the "transitive closures of
        mappings" the Bayesian quality analysis compares (§3.2).
        """
        cycles: list[list[SchemaMapping]] = []
        for root in self.schemas():
            self._extend_cycles(root, root, max_length, {root}, [], cycles)
        cycles.sort(key=lambda c: (len(c), [m.mapping_id for m in c]))
        return cycles

    def _extend_cycles(self, root: str, current: str, max_length: int,
                       visited: set[str], trail: list[SchemaMapping],
                       cycles: list[list[SchemaMapping]]) -> None:
        if len(trail) >= max_length:
            return
        for mapping in self.outgoing(current):
            nxt = mapping.target_schema
            if nxt == root and trail:
                cycles.append(trail + [mapping])
                continue
            if nxt in visited or nxt < root:
                continue
            visited.add(nxt)
            trail.append(mapping)
            self._extend_cycles(root, nxt, max_length, visited, trail,
                                cycles)
            trail.pop()
            visited.discard(nxt)
