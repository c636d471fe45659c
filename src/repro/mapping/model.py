"""Schema-mapping data model.

A :class:`SchemaMapping` is a *directed* bundle of predicate
correspondences from one source schema to one target schema.  The
paper's bidirectional mappings are represented as a pair of directed
mappings (one per direction) sharing provenance; this keeps the degree
bookkeeping of §3.1 (separate in- and out-degrees) straightforward.

Correspondence kinds:

``EQUIVALENCE``
    Source and target predicate have the same extension; a query over
    the source predicate may be rewritten to the target predicate (and
    a reversed mapping rewrites the other way).

``SUBSUMPTION``
    The target predicate's extension is *contained* in the source
    predicate's (``target ⊑ source``).  Rewriting a source-predicate
    query to the target predicate is sound (it only retrieves a subset
    of valid answers); the reverse rewriting would be unsound and is
    therefore not derivable from this correspondence.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from repro.rdf.terms import URI


class MappingKind(enum.Enum):
    """Semantic relationship between two mapped predicates."""

    EQUIVALENCE = "equivalence"
    SUBSUMPTION = "subsumption"

    def __str__(self) -> str:
        return self.value


class PredicateCorrespondence:
    """One mapped predicate pair inside a schema mapping.

    >>> c = PredicateCorrespondence(URI("EMBL#Organism"),
    ...                             URI("EMP#SystematicName"))
    >>> c.kind
    <MappingKind.EQUIVALENCE: 'equivalence'>
    """

    __slots__ = ("source", "target", "kind", "score")

    def __init__(self, source: URI, target: URI,
                 kind: MappingKind = MappingKind.EQUIVALENCE,
                 score: float = 1.0) -> None:
        if not isinstance(source, URI) or not isinstance(target, URI):
            raise TypeError("correspondence endpoints must be URIs")
        if not 0.0 <= score <= 1.0:
            raise ValueError("score must be in [0, 1]")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "score", score)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("PredicateCorrespondence is immutable")

    def __reduce__(self):
        # Constructor round-trip: immutability blocks slot-state
        # unpickling, and mappings cross sharded worker pipes.
        return (PredicateCorrespondence,
                (self.source, self.target, self.kind, self.score))

    def reversed(self) -> "PredicateCorrespondence":
        """The opposite-direction correspondence.

        Only equivalences are reversible; reversing a subsumption
        would flip containment and produce unsound rewritings.
        """
        if self.kind is not MappingKind.EQUIVALENCE:
            raise ValueError("only equivalence correspondences reverse")
        return PredicateCorrespondence(
            self.target, self.source, self.kind, self.score
        )

    def _key(self) -> tuple:
        return (self.source, self.target, self.kind, self.score)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PredicateCorrespondence):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(("PredicateCorrespondence", self._key()))

    def __repr__(self) -> str:
        return (f"PredicateCorrespondence({self.source!r}, {self.target!r}, "
                f"{self.kind}, score={self.score})")


class SchemaMapping:
    """A directed mapping between two schemas.

    Parameters
    ----------
    mapping_id:
        Globally unique identifier (GUID minted by the creating peer).
    source_schema / target_schema:
        Schema *names*; every correspondence's source predicate must
        live in the source schema and its target predicate in the
        target schema.
    correspondences:
        The mapped predicate pairs.
    provenance:
        ``"user"`` for manually defined mappings (axiomatically correct
        in the Bayesian analysis) or ``"auto"`` for mappings created by
        the self-organization loop.
    deprecated:
        Deprecated mappings are ignored for query reformulation and for
        connectivity accounting (§3.2).
    confidence:
        Posterior correctness probability maintained by the Bayesian
        analysis (1.0 for user mappings).
    """

    __slots__ = ("mapping_id", "source_schema", "target_schema",
                 "correspondences", "provenance", "deprecated", "confidence")

    def __init__(
        self,
        mapping_id: str,
        source_schema: str,
        target_schema: str,
        correspondences: Iterable[PredicateCorrespondence],
        provenance: str = "user",
        deprecated: bool = False,
        confidence: float = 1.0,
    ) -> None:
        corr = tuple(correspondences)
        if not corr:
            raise ValueError("a mapping needs at least one correspondence")
        if source_schema == target_schema:
            raise ValueError("mapping endpoints must be distinct schemas")
        if provenance not in ("user", "auto"):
            raise ValueError(f"unknown provenance {provenance!r}")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        for c in corr:
            if c.source.namespace != source_schema:
                raise ValueError(
                    f"{c.source} does not belong to source schema {source_schema}"
                )
            if c.target.namespace != target_schema:
                raise ValueError(
                    f"{c.target} does not belong to target schema {target_schema}"
                )
        object.__setattr__(self, "mapping_id", mapping_id)
        object.__setattr__(self, "source_schema", source_schema)
        object.__setattr__(self, "target_schema", target_schema)
        object.__setattr__(self, "correspondences", corr)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "deprecated", deprecated)
        object.__setattr__(self, "confidence", confidence)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("SchemaMapping is immutable")

    def __reduce__(self):
        return (SchemaMapping,
                (self.mapping_id, self.source_schema, self.target_schema,
                 self.correspondences, self.provenance, self.deprecated,
                 self.confidence))

    # -- lookups --------------------------------------------------------

    @property
    def is_user_defined(self) -> bool:
        """Whether this mapping was created manually."""
        return self.provenance == "user"

    @property
    def active(self) -> bool:
        """Whether the mapping participates in reformulation."""
        return not self.deprecated

    def translate(self, predicate: URI) -> URI | None:
        """The target predicate corresponding to ``predicate``, if any."""
        for c in self.correspondences:
            if c.source == predicate:
                return c.target
        return None

    # -- derived mappings ---------------------------------------------------

    def reversed(self, mapping_id: str | None = None) -> "SchemaMapping":
        """The opposite-direction mapping over reversible correspondences.

        Raises :class:`ValueError` if no correspondence is reversible
        (a pure-subsumption mapping has no sound reverse).
        """
        reversible = [c.reversed() for c in self.correspondences
                      if c.kind is MappingKind.EQUIVALENCE]
        if not reversible:
            raise ValueError(f"mapping {self.mapping_id} is not reversible")
        return SchemaMapping(
            mapping_id if mapping_id is not None else f"{self.mapping_id}~rev",
            self.target_schema,
            self.source_schema,
            reversible,
            provenance=self.provenance,
            deprecated=self.deprecated,
            confidence=self.confidence,
        )

    def with_deprecated(self, deprecated: bool) -> "SchemaMapping":
        """A copy with the deprecation flag set/cleared."""
        return SchemaMapping(
            self.mapping_id, self.source_schema, self.target_schema,
            self.correspondences, provenance=self.provenance,
            deprecated=deprecated, confidence=self.confidence,
        )

    # -- plumbing -----------------------------------------------------------

    def _key(self) -> tuple:
        return (self.mapping_id, self.source_schema, self.target_schema,
                self.correspondences, self.provenance, self.deprecated,
                self.confidence)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchemaMapping):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(("SchemaMapping", self._key()))

    def __repr__(self) -> str:
        flag = ", deprecated" if self.deprecated else ""
        return (f"SchemaMapping({self.mapping_id!r}, "
                f"{self.source_schema!r} -> {self.target_schema!r}, "
                f"{len(self.correspondences)} correspondence(s), "
                f"{self.provenance}{flag})")
