"""Typed records stored in the overlay by the mediation layer.

Triples and schemas are stored as themselves: a peer receiving an
``insert`` dispatches on the value's type (a ``Triple`` feeds the local
triple database, a ``Schema`` the local schema definitions).  A record
type exists only where
one payload type plays two roles — a mapping stored at its source
schema's key space and its incoming-edge marker at the target's — or
where the payload is the record's own data (the connectivity record).

All stored values are immutable value objects: overlay ``remove``
operations match stored values by equality, so replacing a record means
removing the exact old value and inserting the new one.
"""

from __future__ import annotations

from repro.mapping.model import SchemaMapping


class MappingRecord:
    """A directed mapping stored at its *source* schema's key space.

    "Schema mappings are inserted at the key space corresponding to the
    source schema at the overlay layer" (§3).
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: SchemaMapping) -> None:
        object.__setattr__(self, "mapping", mapping)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("MappingRecord is immutable")

    def __reduce__(self):
        return (MappingRecord, (self.mapping,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MappingRecord):
            return NotImplemented
        return self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(("MappingRecord", self.mapping))

    def __repr__(self) -> str:
        return f"MappingRecord({self.mapping.mapping_id!r})"


class IncomingMappingRecord:
    """An incoming-edge marker stored at the *target* schema's key space.

    The paper has each schema peer track both its in- and out-degree
    (§3.1).  Out-degree is derivable from the mapping records stored
    locally; in-degree requires the target's peer to learn about the
    edge — this marker is that notification.  It carries the full
    mapping so deprecation can be reflected on both sides.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: SchemaMapping) -> None:
        object.__setattr__(self, "mapping", mapping)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("IncomingMappingRecord is immutable")

    def __reduce__(self):
        return (IncomingMappingRecord, (self.mapping,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncomingMappingRecord):
            return NotImplemented
        return self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(("IncomingMappingRecord", self.mapping))

    def __repr__(self) -> str:
        return f"IncomingMappingRecord({self.mapping.mapping_id!r})"


class ConnectivityRecord:
    """``{Schema, InDegree, OutDegree}`` published at ``Hash(Domain)``.

    The exact payload of the paper's ``Update(Domain Connectivity)``
    (§3.1).  The domain peer aggregates these into the joint degree
    distribution ``p_jk`` behind the connectivity indicator.
    """

    __slots__ = ("schema_name", "in_degree", "out_degree")

    def __init__(self, schema_name: str, in_degree: int, out_degree: int) -> None:
        if in_degree < 0 or out_degree < 0:
            raise ValueError("degrees must be non-negative")
        object.__setattr__(self, "schema_name", schema_name)
        object.__setattr__(self, "in_degree", in_degree)
        object.__setattr__(self, "out_degree", out_degree)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ConnectivityRecord is immutable")

    def __reduce__(self):
        return (ConnectivityRecord, (self.schema_name, self.in_degree, self.out_degree))

    @property
    def degree_pair(self) -> tuple[int, int]:
        """``(in_degree, out_degree)`` for the indicator computation."""
        return (self.in_degree, self.out_degree)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConnectivityRecord):
            return NotImplemented
        return (self.schema_name, self.in_degree, self.out_degree) == (
            other.schema_name, other.in_degree, other.out_degree
        )

    def __hash__(self) -> int:
        return hash(("ConnectivityRecord", self.schema_name,
                     self.in_degree, self.out_degree))

    def __repr__(self) -> str:
        return (f"ConnectivityRecord({self.schema_name!r}, "
                f"in={self.in_degree}, out={self.out_degree})")
