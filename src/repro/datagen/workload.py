"""Triple-pattern query workloads over a generated corpus.

Generates the kind of queries the demonstration issues: constraint
searches on a predicate with an exact or ``%substring%`` object value
(the flagship ``%Aspergillus%`` example), and subject lookups.  Every
query is guaranteed to have at least one matching triple *somewhere*
in the corpus — the interesting question (and what E4 measures) is
whether reformulation can reach it.
"""

from __future__ import annotations

import random

from repro.datagen.generator import BioDataset
from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
from repro.rdf.terms import Literal, Variable


#: share of drawn queries that are ``%substring%`` object searches
LIKE_FRACTION = 0.3
#: share of drawn queries that are subject lookups (the rest are exact
#: object constraints)
SUBJECT_FRACTION = 0.15


class QueryWorkloadGenerator:
    """Draws random satisfiable triple-pattern queries from a corpus."""

    def __init__(self, dataset: BioDataset, seed: int = 0) -> None:
        self.dataset = dataset
        self.rng = random.Random(seed)

    def _random_triple(self):
        schema_name = self.rng.choice(
            [s.name for s in self.dataset.schemas]
        )
        triples = self.dataset.triples_by_schema[schema_name]
        return self.rng.choice(triples)

    def next_query(self) -> ConjunctiveQuery:
        """One random satisfiable query."""
        triple = self._random_triple()
        x = Variable("x")
        roll = self.rng.random()
        if roll < SUBJECT_FRACTION:
            # Subject lookup: what is the value of this attribute for
            # this specific entry?
            pattern = TriplePattern(triple.subject, triple.predicate, x)
        elif roll < SUBJECT_FRACTION + LIKE_FRACTION:
            # Substring constraint on the object (the %Aspergillus%
            # shape): carve a needle out of the stored value.
            value = triple.object.value
            if len(value) > 4:
                start = self.rng.randrange(0, max(1, len(value) - 4))
                needle = value[start:start + 4]
            else:
                needle = value
            pattern = TriplePattern(x, triple.predicate,
                                    Literal(f"%{needle}%"))
        else:
            # Exact object constraint.
            pattern = TriplePattern(x, triple.predicate, triple.object)
        return ConjunctiveQuery([pattern], [x])

    def queries(self, count: int) -> list[ConjunctiveQuery]:
        """A batch of ``count`` random queries."""
        return [self.next_query() for _ in range(count)]

    def concept_query(self, schema_name: str, concept: str,
                      needle: str) -> ConjunctiveQuery:
        """A ``%needle%`` query against the attribute realizing
        ``concept`` in ``schema_name`` (raises if the schema lacks it).

        This is the workload for recall experiments: the same semantic
        query posed in one schema's vocabulary, with relevant answers
        scattered across every schema realizing the concept.
        """
        attribute = self.dataset.concept_attribute(schema_name, concept)
        if attribute is None:
            raise ValueError(f"{schema_name} has no {concept!r} attribute")
        schema = self.dataset.schema(schema_name)
        x = Variable("x")
        pattern = TriplePattern(x, schema.predicate(attribute),
                                Literal(f"%{needle}%"))
        return ConjunctiveQuery([pattern], [x])
