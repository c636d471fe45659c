"""Protein entities: the shared real-world objects behind the records.

An entity carries one canonical value per concept; every schema that
covers the entity renders those same values under its own attribute
names.  Shared accessions across schemas are what the candidate-pair
selector keys on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datagen.concepts import (
    KEYWORD_POOL,
    MOLECULE_TYPES,
    ORGANISM_POOL,
    PROTEIN_NAME_POOL,
    TAXONOMY_BY_GENUS,
)

_AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"


@dataclass(frozen=True)
class ProteinEntity:
    """One protein with canonical values for every concept."""

    accession: str
    values: tuple[tuple[str, str], ...]  # (concept, value), sorted

    def value(self, concept: str) -> str:
        """Canonical value of one concept (KeyError if absent)."""
        for c, v in self.values:
            if c == concept:
                return v
        raise KeyError(concept)


def _weighted_organism(rng: random.Random) -> str:
    roll = rng.random() * sum(w for _o, w in ORGANISM_POOL)
    acc = 0.0
    for organism, weight in ORGANISM_POOL:
        acc += weight
        if roll <= acc:
            return organism
    return ORGANISM_POOL[-1][0]


def _make_sequence(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(_AMINO_ACIDS) for _ in range(length))


def generate_entity(index: int, rng: random.Random) -> ProteinEntity:
    """One entity with plausible, internally consistent values."""
    accession = f"P{10000 + index:05d}"
    organism = _weighted_organism(rng)
    genus = organism.split()[0]
    length = rng.randint(80, 1200)
    protein = rng.choice(PROTEIN_NAME_POOL)
    gene = (protein.split()[0][:3] + chr(ord("A") + rng.randrange(4))).lower()
    keywords = "; ".join(sorted(rng.sample(
        KEYWORD_POOL, k=rng.randint(1, 3)
    )))
    values = {
        "accession": accession,
        "organism": organism,
        # Sequences are long; store a short prefix as the stored value
        # (enough for identity, cheap on memory at 17k-triple scale).
        "sequence": _make_sequence(rng, 24),
        "seq_length": str(length),
        "description": f"{protein} ({organism})",
        "gene_name": gene,
        "protein_name": protein,
        "taxonomy": TAXONOMY_BY_GENUS.get(genus, "Unclassified"),
        "keywords": keywords,
        "created_date": (
            f"{rng.randint(1988, 2006)}-{rng.randint(1, 12):02d}-"
            f"{rng.randint(1, 28):02d}"
        ),
        "molecule_type": rng.choice(MOLECULE_TYPES),
        "database_ref": f"PDB:{rng.randint(1000, 9999)}",
        "function": f"Catalyzes {protein.lower()} activity",
        "ec_number": f"{rng.randint(1, 6)}.{rng.randint(1, 20)}."
                     f"{rng.randint(1, 30)}.{rng.randint(1, 99)}",
        "host": _weighted_organism(rng),
        "strain": f"{genus[:2].upper()}-{rng.randint(1, 500)}",
    }
    return ProteinEntity(
        accession=accession,
        values=tuple(sorted(values.items())),
    )


def generate_entities(count: int,
                      rng: random.Random | None = None) -> list[ProteinEntity]:
    """``count`` entities with distinct accessions."""
    rng = rng if rng is not None else random.Random(0)
    return [generate_entity(i, rng) for i in range(count)]
