"""Typed records stored in the overlay by the mediation layer.

Triples and schemas are stored as themselves: a peer receiving an
``insert`` dispatches on the value's type (a ``Triple`` feeds the local
triple database, a ``Schema`` the local schema definitions).  A record
type exists only where
one payload type plays two roles — a mapping stored at its source
schema's key space and its incoming-edge marker at the target's — or
where the payload is the record's own data (the connectivity record).

All stored values are immutable value objects (frozen dataclasses,
like ``Schema`` and ``SchemaMapping``): overlay ``remove`` operations
match stored values by equality, so replacing a record means removing
the exact old value and inserting the new one.  Records of different
types are never equal, even around the same mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapping.model import SchemaMapping


@dataclass(frozen=True, slots=True)
class MappingRecord:
    """A directed mapping stored at its *source* schema's key space.

    "Schema mappings are inserted at the key space corresponding to the
    source schema at the overlay layer" (§3).
    """

    mapping: SchemaMapping


def mappings_in(records, include_deprecated: bool = False
                ) -> list[SchemaMapping]:
    """The mappings a schema key space's records store there (its
    outgoing edges; active only by default), sorted by id."""
    return sorted((record.mapping for record in records
                   if isinstance(record, MappingRecord)
                   and (include_deprecated or record.mapping.active)),
                  key=lambda mapping: mapping.mapping_id)


@dataclass(frozen=True, slots=True)
class IncomingMappingRecord:
    """An incoming-edge marker stored at the *target* schema's key space.

    The paper has each schema peer track both its in- and out-degree
    (§3.1).  Out-degree is derivable from the mapping records stored
    locally; in-degree requires the target's peer to learn about the
    edge — this marker is that notification.  It carries the full
    mapping so deprecation can be reflected on both sides.
    """

    mapping: SchemaMapping


@dataclass(frozen=True, slots=True)
class ConnectivityRecord:
    """``{Schema, InDegree, OutDegree}`` published at ``Hash(Domain)``.

    The exact payload of the paper's ``Update(Domain Connectivity)``
    (§3.1).  The domain peer aggregates these into the joint degree
    distribution ``p_jk`` behind the connectivity indicator.

    ``version`` is ``(sequence, publisher)``: the schema's publication
    count at the publishing holder and that holder's node id.
    Successive records race through the overlay, so the domain holder
    keeps the highest version per schema, not the last arrival.
    """

    schema_name: str
    in_degree: int
    out_degree: int
    version: tuple[int, str]

    def __post_init__(self) -> None:
        if self.in_degree < 0 or self.out_degree < 0:
            raise ValueError("degrees must be non-negative")

    @property
    def degree_pair(self) -> tuple[int, int]:
        """``(in_degree, out_degree)`` for the indicator computation."""
        return (self.in_degree, self.out_degree)
