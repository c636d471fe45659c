"""One reformulation step, and the breadth-first planner built on it.

:func:`translations` is §2.3's step: a query through a list of
mappings, minus what the caller's policy excludes.  It is the only
place a reformulation is computed, and the strategies differ only in
where they run it and which policy they pass (``docs/ARCHITECTURE.md``
says what that leaves different): :func:`plan_reformulations` runs it
offline over a :class:`~repro.mapping.graph.MappingGraph` for the
engine, :class:`repro.exec.operators.Reformulate` at the origin as
schema spaces arrive (iterative), and ``GridVinePeer.
_handle_reformulate`` at each schema's peer (recursive).

A plan is the *logical* half of execution: the engine's batch executor
(:mod:`repro.engine.executor`) turns it into a physical operator DAG
(see :mod:`repro.exec`).  A plan is in BFS order, so under a limit the
executor reads its fetch waves off the plan's ``hops`` in one pass.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass, field

from repro.mapping.graph import MappingGraph
from repro.mapping.model import SchemaMapping
from repro.mapping.unfolding import query_schemas, translate_query
from repro.rdf.patterns import ConjunctiveQuery


@dataclass(frozen=True)
class Reformulation:
    """One reformulated query plus its provenance.

    ``path`` is the mapping chain from the original query's schema; an
    empty path denotes the original query itself.
    """

    query: ConjunctiveQuery
    path: tuple[SchemaMapping, ...] = field(default_factory=tuple)

    @property
    def hops(self) -> int:
        """Number of mappings traversed."""
        return len(self.path)

    @property
    def target_schemas(self) -> set[str]:
        """Schemas the reformulated query is posed against."""
        return query_schemas(self.query)


def translations(
    query: ConjunctiveQuery,
    mappings: Iterable[SchemaMapping],
    seen: set[ConjunctiveQuery] | None,
    visited: Collection[str] = (),
) -> Iterator[tuple[SchemaMapping, ConjunctiveQuery]]:
    """One reformulation step: ``query`` through each of ``mappings``.

    Yields ``(mapping, translated)``, in the order of ``mappings``, for
    each :func:`translate_query` result (``None`` for a deprecated
    mapping or one that changes no pattern) into a schema not in
    ``visited`` that is new to ``seen``, adding it there; ``seen=None``
    forwards every translation, repeats included.
    """
    for mapping in mappings:
        if mapping.target_schema in visited:
            continue
        translated = translate_query(query, mapping)
        if translated is None or (seen is not None and translated in seen):
            continue
        if seen is not None:
            seen.add(translated)
        yield mapping, translated


def plan_reformulations(
    query: ConjunctiveQuery,
    graph: MappingGraph,
    max_hops: int = 6,
) -> list[Reformulation]:
    """Enumerate reachable reformulations of ``query``, BFS order.

    Each *distinct* reformulated query is reported once, with the
    shortest (first-found) mapping path that produces it, so its
    ``hops`` is its distance from ``query``.  Cycles in the mapping
    graph are harmless: revisiting a schema either reproduces a query
    already seen, which the step drops, or derives a new one (a
    non-inverse cycle), which is planned like any other.

    >>> # with an empty graph only the original query is planned
    >>> from repro.rdf.parser import parse_search_for
    >>> q = parse_search_for("SearchFor(x? : (x?, A#p, v))")
    >>> [r.hops for r in plan_reformulations(q, MappingGraph())]
    [0]
    """
    original = Reformulation(query, ())
    planned, frontier, seen = [original], [original], {query}
    for _hop in range(max_hops):
        frontier = [
            Reformulation(translated, current.path + (mapping,))
            for current in frontier
            for schema in sorted(current.target_schemas)
            for mapping, translated in translations(
                current.query, graph.outgoing(schema), seen)]
        planned += frontier
    return planned

