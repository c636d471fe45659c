"""Hypothesis strategies for mapping graphs and the queries posed over them.

Schemas ``S0``, ``S1``, ... each have two predicates, ``p`` and ``q``.
A mapping sends one or both of its source's predicates to either
predicate of its target, so a cycle can come back to a *different*
predicate: ``S0#p -> S1#q -> S0#q`` is a non-inverse cycle, and the
query it derives is new, not the original.  Edges come dead (they
cover no predicate the query uses, or lead to a schema without data),
deprecated, converging (two edges into one schema, or two between the
same pair) and cyclic.  :func:`mapping_forests` draws the shape where
every path is the only one to its schema: each schema has at most one
incoming mapping, and mappings only point from a lower index to a
higher one.

A :class:`ReformulationCase` adds a corpus (a few triples for some of
the schemas), a 1–2-pattern query, a hop budget and an overlay to run
it on.
"""

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.mapping.model import PredicateCorrespondence, SchemaMapping
from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
from repro.rdf.terms import URI, Literal, Variable
from repro.rdf.triples import Triple

_PREDICATES = ("p", "q")
_VALUES = ("a", "b")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


@st.composite
def _mapping(draw, mapping_id: str, source: str, target: str):
    pairs = draw(st.dictionaries(st.sampled_from(_PREDICATES),
                                 st.sampled_from(_PREDICATES), min_size=1))
    return SchemaMapping(
        mapping_id, source, target,
        [PredicateCorrespondence(URI(f"{source}#{a}"), URI(f"{target}#{b}"))
         for a, b in sorted(pairs.items())],
        deprecated=draw(st.sampled_from((False, False, False, True))),
        confidence=draw(st.sampled_from((1.0, 0.5))),
    )


def _named(edges):
    return st.tuples(*(_mapping(f"m{i}", f"S{s}", f"S{t}")
                       for i, (s, t) in enumerate(edges)))


@st.composite
def mapping_graphs(draw, max_schemas: int = 5, max_edges: int = 8):
    """``(schemas, mappings)``: any directed multigraph without
    self-loops over ``S0..Sn``."""
    n = draw(st.integers(min_value=2, max_value=max_schemas))
    edges = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=1, max_value=n - 1),
    ).map(lambda e: (e[0], (e[0] + e[1]) % n)),
        min_size=1, max_size=max_edges))
    return tuple(f"S{i}" for i in range(n)), draw(_named(edges))


@st.composite
def mapping_forests(draw, max_schemas: int = 6):
    """``(schemas, mappings)``: a directed forest — every schema but
    the roots has exactly one incoming mapping, from a lower index
    (``S0`` is always a root)."""
    n = draw(st.integers(min_value=2, max_value=max_schemas))
    edges = []
    for child in range(1, n):
        parent = draw(st.integers(min_value=-1, max_value=child - 1))
        if parent >= 0:
            edges.append((parent, child))
    return tuple(f"S{i}" for i in range(n)), draw(_named(edges))


@st.composite
def _corpus(draw, schemas):
    """Two to six triples over three entities for most schemas; about
    one schema in four holds nothing."""
    triples = []
    for schema in schemas:
        if not draw(st.sampled_from((True, True, True, False))):
            continue
        for entity, predicate, value in draw(st.lists(st.tuples(
                st.integers(min_value=0, max_value=2),
                st.sampled_from(_PREDICATES),
                st.sampled_from(_VALUES)), min_size=2, max_size=6)):
            triples.append(Triple(URI(f"{schema}:e{entity}"),
                                  URI(f"{schema}#{predicate}"),
                                  Literal(value)))
    return tuple(dict.fromkeys(triples))


@st.composite
def _query(draw, schemas, sources, cross_schema: bool):
    """A 1–2-pattern query over one schema, or (``cross_schema``) a
    two-schema join on a shared value.  Its first schema is drawn from
    ``sources``."""
    schema = draw(st.sampled_from(sources))
    predicate = URI(f"{schema}#{draw(st.sampled_from(_PREDICATES))}")
    value = Literal(draw(st.sampled_from(_VALUES)))
    shapes = ["constant", "variable", "same-schema join"]
    if cross_schema:
        shapes.append("cross-schema join")
    shape = draw(st.sampled_from(shapes))
    if shape == "constant":
        return ConjunctiveQuery([TriplePattern(X, predicate, value)], [X])
    if shape == "variable":
        return ConjunctiveQuery([TriplePattern(X, predicate, Y)], [X, Y])
    if shape == "same-schema join":
        other = URI(f"{schema}#{draw(st.sampled_from(_PREDICATES))}")
        return ConjunctiveQuery([TriplePattern(X, predicate, Y),
                                 TriplePattern(X, other, value)], [X, Y])
    second = draw(st.sampled_from([s for s in schemas if s != schema]))
    other = URI(f"{second}#{draw(st.sampled_from(_PREDICATES))}")
    return ConjunctiveQuery([TriplePattern(X, predicate, Y),
                             TriplePattern(Z, other, Y)], [X, Z])


@dataclass(frozen=True)
class ReformulationCase:
    """A mapping graph with data, one query over it, and an overlay.

    ``mappings`` carries each mapping in its final state: a deprecated
    one is inserted active and then deprecated.
    """

    mappings: tuple[SchemaMapping, ...]
    triples: tuple[Triple, ...]
    query: ConjunctiveQuery
    max_hops: int
    num_peers: int
    seed: int


@st.composite
def reformulation_cases(draw, forest: bool = False):
    """A :class:`ReformulationCase` on an 8–16-peer overlay.

    On a forest the query stays within one schema.  A two-schema query
    unfolds one schema at a time, so two orders meet at one target, and
    the recursive strategy unfolds it only through the mappings stored
    where its requests are routed (the query's first schema, then each
    target), not through the second schema's.
    """
    schemas, mappings = draw(mapping_forests() if forest
                             else mapping_graphs())
    # Posed where a mapping starts, when one does: a query at a leaf
    # exercises nothing but the local strategy.
    sources = sorted({m.source_schema for m in mappings}) or schemas
    return ReformulationCase(
        mappings=mappings,
        triples=draw(_corpus(schemas)),
        query=draw(_query(schemas, sources, cross_schema=not forest)),
        max_hops=draw(st.integers(min_value=0, max_value=4)),
        num_peers=draw(st.integers(min_value=8, max_value=16)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
