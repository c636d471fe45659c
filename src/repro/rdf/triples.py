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
    """An immutable ground triple, one object per value.

    Like terms, triples are interned: an equal triple is the identical
    object, so equality and hashing are identity.

    >>> t = Triple(URI("EMBL:A78712"), URI("EMBL#Organism"),
    ...            Literal("Aspergillus niger"))
    >>> t.at(Position.PREDICATE)
    URI('EMBL#Organism')
    >>> t is Triple(URI("EMBL:A78712"), URI("EMBL#Organism"),
    ...             Literal("Aspergillus niger"))
    True
    """

    __slots__ = ("subject", "predicate", "object")
    #: process-lifetime table: (subject, predicate, object) -> triple
    _table: dict[tuple, "Triple"] = {}

    def __new__(cls, subject: URI, predicate: URI, obj: GroundTerm):
        key = (subject, predicate, obj)
        triple = cls._table.get(key)
        if triple is None:
            if not isinstance(subject, URI):
                raise TypeError("triple subject must be a URI")
            if not isinstance(predicate, URI):
                raise TypeError("triple predicate must be a URI")
            if not isinstance(obj, (URI, Literal)):
                raise TypeError("triple object must be a URI or Literal")
            triple = object.__new__(cls)
            object.__setattr__(triple, "subject", subject)
            object.__setattr__(triple, "predicate", predicate)
            object.__setattr__(triple, "object", obj)
            cls._table[key] = triple
        return triple

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Triple is immutable")

    def __reduce__(self):
        # Constructor round-trip: unpickling and copying re-intern
        # (triples cross sharded worker pipes inside overlay messages).
        return (Triple, self.as_tuple())

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

    def sort_key(self) -> tuple:
        """``(rank, value)`` of subject, predicate and object, flat:
        the terms' order as one tuple, so a sort keyed on it compares
        in C."""
        s, p, o = self.subject, self.predicate, self.object
        return (s._order, s.value, p._order, p.value, o._order, o.value)

    def __lt__(self, other: "Triple") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"Triple({self.subject!r}, {self.predicate!r}, {self.object!r})"

    def __str__(self) -> str:
        return f"({self.subject}, {self.predicate}, {self.object})"
