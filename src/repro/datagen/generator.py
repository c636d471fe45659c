"""The dataset generator: schemas, records and triples with ground truth.

:class:`BioDatasetGenerator` produces a :class:`BioDataset` that plays
the role of the EBI export in the original demonstration.  Scale knobs
default to the demonstration's shape (50 schemas) with entity counts
tuned so the standard configuration lands near the paper's 17 000
triples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.datagen.concepts import (
    CONCEPT_SYNONYMS,
    CORE_CONCEPTS,
    OPTIONAL_CONCEPTS,
)
from repro.datagen.entities import ProteinEntity, generate_entities
from repro.mapping.model import (
    MappingKind,
    PredicateCorrespondence,
    SchemaMapping,
)
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.schema.model import Schema


@dataclass
class BioDataset:
    """A generated corpus plus the ground truth behind it."""

    domain: str
    schemas: list[Schema]
    #: schema name -> {attribute name -> concept}
    attribute_concepts: dict[str, dict[str, str]]
    entities: list[ProteinEntity]
    #: schema name -> the entities it covers
    coverage: dict[str, list[ProteinEntity]]
    #: all data triples, grouped per schema
    triples_by_schema: dict[str, list[Triple]] = field(default_factory=dict)

    @property
    def triples(self) -> list[Triple]:
        """All triples of the corpus."""
        return [t for ts in self.triples_by_schema.values() for t in ts]

    def schema(self, name: str) -> Schema:
        """Look up a schema by name."""
        for schema in self.schemas:
            if schema.name == name:
                return schema
        raise KeyError(name)

    def concept_attribute(self, schema_name: str, concept: str) -> str | None:
        """The attribute realizing ``concept`` in a schema, if any."""
        for attribute, c in self.attribute_concepts[schema_name].items():
            if c == concept:
                return attribute
        return None

    def ground_truth_pairs(self, schema_a: str,
                           schema_b: str) -> list[tuple[str, str]]:
        """Attribute pairs of ``schema_a`` x ``schema_b`` realizing the
        same concept — the reference answer for matcher evaluation."""
        concepts_b = {
            concept: attribute
            for attribute, concept in self.attribute_concepts[schema_b].items()
        }
        pairs: list[tuple[str, str]] = []
        for attribute, concept in sorted(
            self.attribute_concepts[schema_a].items()
        ):
            other = concepts_b.get(concept)
            if other is not None:
                pairs.append((attribute, other))
        return pairs

    def ground_truth_mapping(self, schema_a: str, schema_b: str,
                             mapping_id: str | None = None,
                             provenance: str = "user") -> SchemaMapping:
        """A correct mapping between two schemas, from ground truth."""
        pairs = self.ground_truth_pairs(schema_a, schema_b)
        if not pairs:
            raise ValueError(f"{schema_a} and {schema_b} share no concept")
        sa = self.schema(schema_a)
        sb = self.schema(schema_b)
        return SchemaMapping(
            mapping_id if mapping_id is not None
            else f"gt:{schema_a}->{schema_b}",
            schema_a,
            schema_b,
            [PredicateCorrespondence(sa.predicate(a), sb.predicate(b))
             for a, b in pairs],
            provenance=provenance,
        )

    def corrupted_mapping(self, schema_a: str, schema_b: str,
                          rng: random.Random,
                          mapping_id: str | None = None) -> SchemaMapping:
        """A deliberately *wrong* mapping: concepts are shuffled.

        Used by E5 to test that the Bayesian cycle analysis detects and
        deprecates erroneous automatic mappings.  Every correspondence
        relates attributes of *different* concepts.
        """
        pairs = self.ground_truth_pairs(schema_a, schema_b)
        if len(pairs) < 2:
            raise ValueError("need >= 2 shared concepts to corrupt")
        lefts = [a for a, _b in pairs]
        rights = [b for _a, b in pairs]
        # Derange the right-hand side so no pair is correct.
        deranged = rights[1:] + rights[:1]
        rng.shuffle(lefts)
        sa = self.schema(schema_a)
        sb = self.schema(schema_b)
        return SchemaMapping(
            mapping_id if mapping_id is not None
            else f"bad:{schema_a}->{schema_b}",
            schema_a,
            schema_b,
            [PredicateCorrespondence(sa.predicate(a), sb.predicate(b),
                                     kind=MappingKind.EQUIVALENCE)
             for a, b in zip(lefts, deranged)],
            provenance="auto",
            confidence=0.7,
        )


#: the mapping domain of every generated schema
DOMAIN = "protein-sequences"


class BioDatasetGenerator:
    """Generates :class:`BioDataset` corpora.

    Parameters
    ----------
    num_schemas:
        Number of distinct schemas (the demo uses 50).
    num_entities:
        Size of the shared protein universe.
    entities_per_schema:
        How many entities each schema covers (sampled without
        replacement from the universe, so coverage overlaps).
    concepts_per_schema:
        ``(min, max)`` number of *optional* concepts per schema, on top
        of the core concepts (accession, organism).
    seed:
        Master seed; everything derives from it.

    Every generated schema belongs to the one mapping domain
    :data:`DOMAIN`.
    """

    def __init__(
        self,
        num_schemas: int = 50,
        num_entities: int = 300,
        entities_per_schema: int = 40,
        concepts_per_schema: tuple[int, int] = (4, 8),
        seed: int = 0,
    ) -> None:
        if num_schemas < 1:
            raise ValueError("num_schemas must be positive")
        if entities_per_schema > num_entities:
            raise ValueError("entities_per_schema exceeds universe size")
        self.num_schemas = num_schemas
        self.num_entities = num_entities
        self.entities_per_schema = entities_per_schema
        self.concepts_per_schema = concepts_per_schema
        self.domain = DOMAIN
        self.seed = seed

    # -- naming ---------------------------------------------------------

    _SOURCE_NAMES = [
        "EMBL", "EMP", "SwissProt", "TrEMBL", "PIR", "GenBankP", "DDBJp",
        "PRF", "PDBSeq", "UniRef", "IPI", "RefSeqP", "Ensembl", "VEGA",
        "TAIR", "SGD", "FlyBase", "WormPep", "ZFIN", "MGI",
    ]

    def _schema_name(self, index: int) -> str:
        base = self._SOURCE_NAMES[index % len(self._SOURCE_NAMES)]
        round_no = index // len(self._SOURCE_NAMES)
        return base if round_no == 0 else f"{base}{round_no + 1}"

    # -- generation --------------------------------------------------------

    def generate(self) -> BioDataset:
        """Build the full corpus."""
        rng = random.Random(self.seed)
        entities = generate_entities(self.num_entities,
                                     random.Random(rng.random()))
        schemas: list[Schema] = []
        attribute_concepts: dict[str, dict[str, str]] = {}
        for index in range(self.num_schemas):
            name = self._schema_name(index)
            schema, concept_map = self._generate_schema(name, rng)
            schemas.append(schema)
            attribute_concepts[name] = concept_map
        coverage: dict[str, list[ProteinEntity]] = {}
        triples_by_schema: dict[str, list[Triple]] = {}
        for schema in schemas:
            covered = rng.sample(entities, self.entities_per_schema)
            coverage[schema.name] = covered
            triples_by_schema[schema.name] = self._record_triples(
                schema, attribute_concepts[schema.name], covered
            )
        return BioDataset(
            domain=self.domain,
            schemas=schemas,
            attribute_concepts=attribute_concepts,
            entities=entities,
            coverage=coverage,
            triples_by_schema=triples_by_schema,
        )

    def _generate_schema(self, name: str,
                         rng: random.Random) -> tuple[Schema, dict[str, str]]:
        lo, hi = self.concepts_per_schema
        optional = rng.sample(OPTIONAL_CONCEPTS, rng.randint(lo, hi))
        concepts = list(CORE_CONCEPTS) + optional
        concept_map: dict[str, str] = {}
        attributes: list[str] = []
        for concept in concepts:
            pool = CONCEPT_SYNONYMS[concept]
            attribute = rng.choice(pool)
            # Avoid duplicate attribute names within one schema (two
            # concepts may share a synonym spelling in principle).
            while attribute in concept_map:
                attribute = rng.choice(pool)
            concept_map[attribute] = concept
            attributes.append(attribute)
        return Schema(name, attributes, domain=self.domain), concept_map

    def _record_triples(self, schema: Schema, concept_map: dict[str, str],
                        covered: list[ProteinEntity]) -> list[Triple]:
        """One triple per covered entity and schema attribute, in
        attribute order: each attribute's predicate and concept are
        resolved once per schema, each entity's values once."""
        columns = [(schema.predicate(attribute), concept_map[attribute])
                   for attribute in schema.attributes]
        triples: list[Triple] = []
        append = triples.append
        for entity in covered:
            subject = URI(f"{schema.name}:{entity.accession}")
            values = dict(entity.values)
            for predicate, concept in columns:
                append(Triple(subject, predicate, Literal(values[concept])))
        return triples
