"""Pinned corpora: a sha256 over three generated ``BioDataset``s.

:class:`BioDatasetGenerator` feeds every workload that loads data, so a
change to how it draws entities, schemas or coverage, or to how it
renders records as triples, changes what every such run stores.  The
goldens see that only through traffic; these digests see it directly.
Each covers, in generation order, the schemas, every schema's
attribute -> concept map, the entities, every schema's coverage (by
accession) and every schema's triples.

- ``publish``'s shape at seed 11 (50 schemas, 330 entities, 22 per
  schema, 6 optional concepts each);
- ``selforg``'s shape at seed 11 (48 schemas, 300 entities, 15 per
  schema, 6 optional concepts each);
- the default generator at seed 0.

They were recorded before entity draws went through one ``_randbelow``
mirror and records were rendered from per-schema columns, and that
rewrite left them unchanged.
"""

import hashlib

import pytest

from repro.datagen.generator import BioDatasetGenerator


def digest(dataset) -> str:
    parts = [
        [repr(schema) for schema in dataset.schemas],
        list((name, list(concepts.items()))
             for name, concepts in dataset.attribute_concepts.items()),
        [repr(entity) for entity in dataset.entities],
        [(name, [entity.accession for entity in covered])
         for name, covered in dataset.coverage.items()],
        [(name, [repr(triple) for triple in triples])
         for name, triples in dataset.triples_by_schema.items()],
    ]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("shape, expected", [
    (dict(num_schemas=50, num_entities=330, entities_per_schema=22,
          concepts_per_schema=(6, 6), seed=11),
     "81b1df0d1fc45a05c0d3fd9f8fa0d73054b1cdf0b879fd4123553ee6808713f9"),
    (dict(num_schemas=48, num_entities=300, entities_per_schema=15,
          concepts_per_schema=(6, 6), seed=11),
     "fa8b72e4e6193bf1878946dd9863058c62e621122c1336908b92481077c858be"),
    (dict(seed=0),
     "9f286305ec2785036dfd1c2a7cbb5c4b33a188117c1453ac2a97e2d896d36236"),
], ids=["publish", "selforg", "default"])
def test_generated_corpus(shape, expected):
    assert digest(BioDatasetGenerator(**shape).generate()) == expected
