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


#: the organism weights' total, which every organism draw scales by
_ORGANISM_WEIGHT = sum(w for _o, w in ORGANISM_POOL)


def _below(bits, n: int) -> int:
    """``Random._randbelow(n)`` of the generator whose ``getrandbits``
    is ``bits``: the top ``n.bit_length()`` bits of the next word,
    redrawn while ``>= n``.

    Every entity draw but ``random()`` and ``sample`` goes through it
    (``randrange(n)`` is ``_below(bits, n)``, ``randint(a, b)`` is
    ``a + _below(bits, b - a + 1)``, ``choice(seq)`` is
    ``seq[_below(bits, len(seq))]``) and consumes the stream word for
    word as ``Random`` does, without its argument checks;
    ``tests/strategies/test_reference_draw.py`` pins the equality.
    """
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _weighted_organism(rng: random.Random) -> str:
    roll = rng.random() * _ORGANISM_WEIGHT
    acc = 0.0
    for organism, weight in ORGANISM_POOL:
        acc += weight
        if roll <= acc:
            return organism
    return ORGANISM_POOL[-1][0]


def generate_entity(index: int, rng: random.Random) -> ProteinEntity:
    """One entity with plausible, internally consistent values."""
    bits = rng.getrandbits
    accession = f"P{10000 + index:05d}"
    organism = _weighted_organism(rng)
    genus = organism.split()[0]
    length = 80 + _below(bits, 1121)
    protein = PROTEIN_NAME_POOL[_below(bits, len(PROTEIN_NAME_POOL))]
    gene = (protein.split()[0][:3] + chr(ord("A") + _below(bits, 4))).lower()
    keywords = "; ".join(sorted(rng.sample(
        KEYWORD_POOL, k=1 + _below(bits, 3)
    )))
    values = {
        "accession": accession,
        "organism": organism,
        # Sequences are long; store a short prefix as the stored value
        # (enough for identity, cheap on memory at 17k-triple scale).
        "sequence": "".join([_AMINO_ACIDS[_below(bits, len(_AMINO_ACIDS))]
                             for _ in range(24)]),
        "seq_length": str(length),
        "description": f"{protein} ({organism})",
        "gene_name": gene,
        "protein_name": protein,
        "taxonomy": TAXONOMY_BY_GENUS.get(genus, "Unclassified"),
        "keywords": keywords,
        "created_date": (
            f"{1988 + _below(bits, 19)}-{1 + _below(bits, 12):02d}-"
            f"{1 + _below(bits, 28):02d}"
        ),
        "molecule_type": MOLECULE_TYPES[_below(bits, len(MOLECULE_TYPES))],
        "database_ref": f"PDB:{1000 + _below(bits, 9000)}",
        "function": f"Catalyzes {protein.lower()} activity",
        "ec_number": f"{1 + _below(bits, 6)}.{1 + _below(bits, 20)}."
                     f"{1 + _below(bits, 30)}.{1 + _below(bits, 99)}",
        "host": _weighted_organism(rng),
        "strain": f"{genus[:2].upper()}-{1 + _below(bits, 500)}",
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
