"""The schema model: a named set of attributes within a domain.

A schema's attributes become triple predicates through the
``SchemaName#Attribute`` URI convention (the paper's
``EMBL#Organism``).  The ``domain`` names the application domain whose
connectivity is tracked at ``Hash(Domain)`` (§3.1, e.g. "protein
sequences").
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.rdf.terms import URI


class Schema:
    """An immutable schema definition.

    >>> s = Schema("EMBL", ["Organism", "SeqLength"], domain="bio")
    >>> s.predicate("Organism")
    URI('EMBL#Organism')
    >>> s.predicates()
    [URI('EMBL#Organism'), URI('EMBL#SeqLength')]
    """

    __slots__ = ("name", "attributes", "domain")

    def __init__(self, name: str, attributes: Iterable[str],
                 domain: str = "default") -> None:
        if not name:
            raise ValueError("schema name must be non-empty")
        if "#" in name:
            raise ValueError("schema name must not contain '#'")
        attrs = tuple(sorted(set(attributes)))
        if not attrs:
            raise ValueError(f"schema {name!r} needs at least one attribute")
        for attr in attrs:
            if not attr or "#" in attr:
                raise ValueError(f"bad attribute name {attr!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Schema is immutable")

    def __reduce__(self):
        # Constructor round-trip: immutability blocks slot-state
        # unpickling, and schemas cross sharded worker pipes.
        return (Schema, (self.name, self.attributes, self.domain))

    def predicate(self, attribute: str) -> URI:
        """The predicate URI of one of this schema's attributes."""
        if attribute not in self.attributes:
            raise KeyError(f"{self.name} has no attribute {attribute!r}")
        return URI(f"{self.name}#{attribute}")

    def predicates(self) -> list[URI]:
        """All predicate URIs, in sorted attribute order."""
        return [URI(f"{self.name}#{a}") for a in self.attributes]

    def _key(self) -> tuple:
        return (self.name, self.attributes, self.domain)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(("Schema", self._key()))

    def __repr__(self) -> str:
        return (f"Schema({self.name!r}, {list(self.attributes)!r}, "
                f"domain={self.domain!r})")
