"""Mapping-graph versioning: the cache-invalidation backbone.

A reformulation plan is a pure function of (query, mapping graph), so a
cached plan stays valid exactly as long as the part of the mapping
graph it consulted does not change.  The :class:`MappingVersionClock`
tracks that change at *schema* granularity: every mapping event
(insert, remove, deprecate) bumps the version of the mapping's source
and target schemas, and tells every listener which schema moved.  A
plan cache subscribes when it is built, before it holds anything, and
drops the plans depending on a schema the moment that schema moves.

Schema granularity is the sweet spot between a single global counter
(every mapping event would flush the whole cache, even for mappings in
unrelated corners of the mediation layer) and per-mapping dependency
tracking (a *new* mapping has no identity yet when existing plans must
be invalidated — only its endpoint schemas are known in advance).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.mapping.model import SchemaMapping

#: Listener signature: called once per schema whose version was bumped.
SchemaListener = Callable[[str], None]


class MappingVersionClock:
    """Monotonic per-schema version counters for the mapping graph.

    >>> from repro.mapping.model import PredicateCorrespondence
    >>> from repro.rdf.terms import URI
    >>> clock = MappingVersionClock()
    >>> clock.version("A")
    0
    >>> m = SchemaMapping("m1", "A", "B",
    ...                   [PredicateCorrespondence(URI("A#p"), URI("B#q"))])
    >>> clock.bump(m)
    >>> (clock.version("A"), clock.version("B"), clock.version("C"))
    (1, 1, 0)
    """

    def __init__(self) -> None:
        self._versions: dict[str, int] = {}
        #: total number of mapping events observed (diagnostics only)
        self.events = 0
        self._listeners: list[SchemaListener] = []

    def add_listener(self, listener: SchemaListener) -> None:
        """Register a callback fired (per schema) on every bump."""
        self._listeners.append(listener)

    def version(self, schema: str) -> int:
        """Current version of one schema (0 until its first event)."""
        return self._versions.get(schema, 0)

    def bump(self, mapping: SchemaMapping) -> None:
        """Record one mapping event: both endpoint schemas move on."""
        self.events += 1
        for schema in (mapping.source_schema, mapping.target_schema):
            self._versions[schema] = self.version(schema) + 1
            for listener in self._listeners:
                listener(schema)
