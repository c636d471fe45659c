"""The schema model: a named set of attributes within a domain.

A schema's attributes become triple predicates through the
``SchemaName#Attribute`` URI convention (the paper's
``EMBL#Organism``).  The ``domain`` names the application domain whose
connectivity is tracked at ``Hash(Domain)`` (§3.1, e.g. "protein
sequences").
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.rdf.terms import URI


@dataclass(frozen=True, slots=True)
class Schema:
    """An immutable schema definition.  ``attributes`` may be any
    iterable; it is stored as a sorted, deduplicated tuple.

    >>> s = Schema("EMBL", ["Organism", "SeqLength"], domain="bio")
    >>> s.predicate("Organism")
    URI('EMBL#Organism')
    >>> s.predicates()
    [URI('EMBL#Organism'), URI('EMBL#SeqLength')]
    """

    name: str
    attributes: Iterable[str]
    domain: str = "default"

    def __post_init__(self) -> None:
        name = self.name
        if not name:
            raise ValueError("schema name must be non-empty")
        if "#" in name:
            raise ValueError("schema name must not contain '#'")
        attrs = tuple(sorted(set(self.attributes)))
        if not attrs:
            raise ValueError(f"schema {name!r} needs at least one attribute")
        for attr in attrs:
            if not attr or "#" in attr:
                raise ValueError(f"bad attribute name {attr!r}")
        object.__setattr__(self, "attributes", attrs)

    def predicate(self, attribute: str) -> URI:
        """The predicate URI of one of this schema's attributes."""
        if attribute not in self.attributes:
            raise KeyError(f"{self.name} has no attribute {attribute!r}")
        return URI(f"{self.name}#{attribute}")

    def predicates(self) -> list[URI]:
        """All predicate URIs, in sorted attribute order."""
        return [URI(f"{self.name}#{a}") for a in self.attributes]
