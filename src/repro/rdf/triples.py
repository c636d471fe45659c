"""Triples and triple positions.

A :class:`Triple` is the storage unit of the mediation layer:
``t = (t_subject, t_predicate, t_object)`` where the subject is the
resource the statement is about, the predicate is a schema attribute
and the object is a resource or literal value (§2.2).
"""

from __future__ import annotations

import enum

from repro.rdf.terms import GroundTerm, Literal, URI


class Position(enum.Enum):
    """The three positions of a triple; values match the paper's
    ``pos(term)`` function which "either takes subject, predicate or
    object as value"."""

    SUBJECT = "subject"
    PREDICATE = "predicate"
    OBJECT = "object"

    def __str__(self) -> str:
        return self.value

    # Enum's default ``__hash__`` is a Python-level ``hash(self._name_)``
    # call; positions key the store's index dicts, so every index probe
    # pays it.  Members are singletons compared by identity, so the
    # identity-based C slot is equivalent (and hash order is never
    # observable: all Position-keyed mappings iterate insertion order).
    __hash__ = object.__hash__


#: Iteration order for "index each triple three times".
ALL_POSITIONS = (Position.SUBJECT, Position.PREDICATE, Position.OBJECT)


class Triple:
    """An immutable ground triple.

    >>> t = Triple(URI("EMBL:A78712"), URI("EMBL#Organism"),
    ...            Literal("Aspergillus niger"))
    >>> t.at(Position.PREDICATE)
    URI('EMBL#Organism')
    """

    __slots__ = ("subject", "predicate", "object", "_hash")

    def __init__(self, subject: URI, predicate: URI, obj: GroundTerm) -> None:
        if not isinstance(subject, URI):
            raise TypeError("triple subject must be a URI")
        if not isinstance(predicate, URI):
            raise TypeError("triple predicate must be a URI")
        if not isinstance(obj, (URI, Literal)):
            raise TypeError("triple object must be a URI or Literal")
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "object", obj)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Triple is immutable")

    def __reduce__(self):
        # Constructor round-trip (drops the cached hash): triples
        # cross sharded worker pipes inside overlay messages.
        return (Triple, (self.subject, self.predicate, self.object))

    def at(self, position: Position) -> GroundTerm:
        """The term at ``position``."""
        if position is Position.SUBJECT:
            return self.subject
        if position is Position.PREDICATE:
            return self.predicate
        return self.object

    def as_tuple(self) -> tuple[GroundTerm, GroundTerm, GroundTerm]:
        """``(subject, predicate, object)`` as a plain tuple."""
        return (self.subject, self.predicate, self.object)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Triple):
            return NotImplemented
        # Slot by slot, identical terms first — what the tuple
        # comparison did, minus the two ``as_tuple()`` allocations:
        # replica merge and ``local_remove`` compare stored triples in
        # linear scans.
        a, b = self.subject, other.subject
        if a is not b and not a == b:
            return False
        a, b = self.predicate, other.predicate
        if a is not b and not a == b:
            return False
        a, b = self.object, other.object
        return a is b or a == b

    def __lt__(self, other: "Triple") -> bool:
        return self.as_tuple() < other.as_tuple()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.subject, self.predicate, self.object))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"Triple({self.subject!r}, {self.predicate!r}, {self.object!r})"

    def __str__(self) -> str:
        return f"({self.subject}, {self.predicate}, {self.object})"
