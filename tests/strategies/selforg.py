"""Hypothesis strategies for a self-organization round's inputs.

:func:`ranking_cases` draws per-schema reference sets (some empty,
some for schemas outside the mapping graph) over a mapping graph from
:func:`~strategies.mapping_graphs.mapping_graphs` — active, deprecated
and reverse-direction mappings — plus a ``min_shared`` of 0–3.

:func:`instance_cases` draws what one instance read returns: a few
schemas, a key for each of their predicates from a small key range (so
predicates share keys), and per key the items read under it.  A key
space holds triples of *any* predicate — a triple indexed there by its
subject or object — non-triple items, and repeats; a failed key of a
lossy read comes back empty.
"""

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.rdf.terms import URI, Literal
from repro.rdf.triples import Triple
from repro.schema.model import Schema

from strategies.mapping_graphs import mapping_graphs

_REFERENCES = tuple(f"P{i}" for i in range(8))
_ATTRIBUTES = ("Acc", "AccNo", "Organism", "p", "q")
_VALUES = ("a", "b", "c", "P1", "P2")


@dataclass(frozen=True)
class RankingCase:
    """Reference sets, the mappings of a graph, and a ``min_shared``."""

    references: dict[str, frozenset[str]]
    mappings: tuple
    min_shared: int


@st.composite
def ranking_cases(draw):
    """A :class:`RankingCase` over ``S0..Sn`` and up to two schemas
    no mapping touches."""
    schemas, mappings = draw(mapping_graphs())
    outside = draw(st.lists(st.sampled_from(("T0", "T1")), unique=True))
    references = {
        name: draw(st.frozensets(st.sampled_from(_REFERENCES), max_size=6))
        for name in list(schemas) + outside
    }
    return RankingCase(references, mappings,
                       draw(st.integers(min_value=0, max_value=3)))


@dataclass(frozen=True)
class InstanceCase:
    """Schemas, the key each predicate is read under, and the read."""

    schemas: dict[str, Schema]
    key_of: dict[URI, int]
    spaces: dict[int, list]
    hint: str | None


@st.composite
def instance_cases(draw):
    """An :class:`InstanceCase` over one to three schemas."""
    count = draw(st.integers(min_value=1, max_value=3))
    schemas = {
        f"S{i}": Schema(f"S{i}", draw(st.sets(st.sampled_from(_ATTRIBUTES),
                                              min_size=1)))
        for i in range(count)
    }
    predicates = [predicate for schema in schemas.values()
                  for predicate in schema.predicates()]
    key_of = {predicate: draw(st.integers(min_value=0, max_value=2))
              for predicate in predicates}
    item = st.one_of(
        st.builds(lambda s, p, v: Triple(URI(f"e{s}"), p, Literal(v)),
                  st.integers(min_value=0, max_value=2),
                  st.sampled_from(predicates),
                  st.sampled_from(_VALUES)),
        st.sampled_from(tuple(schemas.values())),
    )
    spaces = {key: draw(st.lists(item, max_size=10))
              for key in set(key_of.values())}
    return InstanceCase(schemas, key_of, spaces,
                        draw(st.sampled_from((None, "acc", "ACC"))))
