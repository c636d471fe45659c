"""Mapping-graph change notification: the cache-invalidation backbone.

A reformulation plan is a pure function of (query, mapping graph), so a
cached plan stays valid exactly as long as the part of the mapping
graph it consulted does not change.  The :class:`MappingVersionClock`
reports that change at *schema* granularity: every mapping event
(insert, remove, deprecate) moves the mapping's source and target
schemas, and the clock calls every listener once per endpoint schema.
A plan cache subscribes when it is built, before it holds anything,
and drops the plans depending on a schema the moment that schema
moves.

Schema granularity is the sweet spot between a single global counter
(every mapping event would flush the whole cache, even for mappings in
unrelated corners of the mediation layer) and per-mapping dependency
tracking (a *new* mapping has no identity yet when existing plans must
be invalidated — only its endpoint schemas are known in advance).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.mapping.model import SchemaMapping

#: Listener signature: called once per schema a mapping event moves.
SchemaListener = Callable[[str], None]


class MappingVersionClock:
    """Tells its listeners which schemas each mapping event moves.

    >>> from repro.mapping.model import PredicateCorrespondence
    >>> from repro.rdf.terms import URI
    >>> clock = MappingVersionClock()
    >>> moved = []
    >>> clock.add_listener(moved.append)
    >>> m = SchemaMapping("m1", "A", "B",
    ...                   [PredicateCorrespondence(URI("A#p"), URI("B#q"))])
    >>> clock.bump(m)
    >>> moved
    ['A', 'B']
    """

    def __init__(self) -> None:
        self._listeners: list[SchemaListener] = []

    def add_listener(self, listener: SchemaListener) -> None:
        """Register a callback fired (per schema) on every bump."""
        self._listeners.append(listener)

    def bump(self, mapping: SchemaMapping) -> None:
        """Record one mapping event: both endpoint schemas move on."""
        for schema in (mapping.source_schema, mapping.target_schema):
            for listener in self._listeners:
                listener(schema)
