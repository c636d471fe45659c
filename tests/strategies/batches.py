"""Engine batches whose reformulations share answers and scans.

A :class:`SharingCase` is a small deployment — a few schemas with an
``org`` and a ``len`` attribute each, entities shared across schemas
(so a reformulated join still finds rows) and a generated set of
directed mappings over either attribute or both — plus one engine
batch over it.  Its queries are drawn, repeats allowed, from each
schema's organism query, its ``org`` joined with its own and with
another schema's ``len``, and their alpha-variants, so a batch holds:

* duplicate queries and alpha-variants;
* queries whose reformulations coincide — a mapping back and forth
  makes ``Q`` a reformulation of ``Q``'s own reformulation, and two
  schemas mapped into a third share that reformulation;
* joins whose reformulations share a scan — a mapping out of ``Sa``
  rewrites the ``Sa#org`` pattern of a join with ``Sb#len`` and keeps
  the other;

under a limit of ``None`` or ``1..8``.  Per-message latency is drawn
from an interval, so replies arrive in varied orders.
"""

import random
from dataclasses import dataclass

from hypothesis import strategies as st

from repro.mediation.network import GridVineNetwork
from repro.rdf.parser import parse_search_for
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.simnet.latency import UniformLatency

ATTRIBUTES = ("org", "len")
#: entities per deployment; each holds each attribute in a schema
#: with that schema's density
ENTITIES = 8
MAX_HOPS = 3


def batch_queries(schemas: int) -> list[str]:
    """Every query a batch draws from: per schema ``Sa``, the organism
    query, the ``Sa#org``/``Sa#len`` join, the ``Sa#org``/``Sb#len``
    join (``b = a + 1``, cyclically) and an alpha-variant of each."""
    pool = []
    for index in range(schemas):
        name, other = f"S{index}", f"S{(index + 1) % schemas}"
        for x, y in (("x", "y"), ("u", "v")):
            pool.append(f"SearchFor({x}? : ({x}?, {name}#org, %Asp%))")
            for length in (name, other):
                pool.append(f"SearchFor({x}?, {y}? : ({x}?, {name}#org, "
                            f"%Asp%) AND ({x}?, {length}#len, {y}?))")
    return pool


@dataclass(frozen=True)
class SharingCase:
    """One deployment and one batch over it."""

    seed: int
    schemas: int
    #: directed mappings: (source index, target index, attributes)
    mappings: tuple[tuple[int, int, tuple[str, ...]], ...]
    #: indices into :func:`batch_queries`
    batch: tuple[int, ...]
    limit: int | None
    #: the origin peer, as an index into the sorted peer ids
    origin: int
    #: per schema: the chance an entity holds each attribute there
    densities: tuple[float, ...]


@st.composite
def sharing_cases(draw) -> SharingCase:
    schemas = draw(st.integers(min_value=2, max_value=4))
    pairs = [(a, b) for a in range(schemas) for b in range(schemas)
             if a != b]
    mappings = draw(st.lists(
        st.tuples(st.sampled_from(pairs),
                  st.sampled_from((("org",), ("len",), ATTRIBUTES))),
        min_size=schemas - 1, max_size=2 * schemas,
        unique_by=lambda mapping: mapping[0]))
    pool = len(batch_queries(schemas))
    # A few distinct queries, each drawn repeatedly into the batch.
    drawn = draw(st.lists(st.integers(min_value=0, max_value=pool - 1),
                          min_size=1, max_size=4, unique=True))
    return SharingCase(
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        schemas=schemas,
        mappings=tuple((a, b, attributes)
                       for (a, b), attributes in mappings),
        batch=tuple(draw(st.lists(st.sampled_from(drawn),
                                  min_size=1, max_size=8))),
        limit=draw(st.integers(min_value=0, max_value=8)) or None,
        origin=draw(st.integers(min_value=0, max_value=31)),
        # Sparse schemas leave a query short of its limit until a
        # later wave, while a dense one is satisfied at once.
        densities=tuple(draw(st.lists(st.sampled_from((0.1, 0.5, 0.9)),
                                      min_size=schemas,
                                      max_size=schemas))),
    )


def deploy_sharing_case(case: SharingCase):
    """Build the case's deployment; returns ``(network, engine)``.

    Equal cases build equal deployments: everything random is drawn
    from the case's seed.
    """
    net = GridVineNetwork.build(num_peers=32, seed=case.seed,
                                latency=UniformLatency(0.01, 0.2))
    engine = net.create_engine(max_hops=MAX_HOPS)
    schemas = [Schema(f"S{index}", list(ATTRIBUTES), domain="share")
               for index in range(case.schemas)]
    for schema in schemas:
        net.insert_schema(schema)
    rng = random.Random(f"{case.seed}/rows")
    triples = []
    for schema, density in zip(schemas, case.densities):
        for entity in range(ENTITIES):
            subject = URI(f"e{entity}")
            if rng.random() < density:
                triples.append(Triple(subject, URI(f"{schema.name}#org"),
                                      Literal(f"Asp-{entity}")))
            if rng.random() < density:
                triples.append(Triple(subject, URI(f"{schema.name}#len"),
                                      Literal(str(100 + entity))))
    net.insert_triples(triples)
    for source, target, attributes in case.mappings:
        net.create_mapping(schemas[source], schemas[target],
                           [(name, name) for name in attributes])
    net.settle()
    return net, engine


def run_sharing_case(case: SharingCase):
    """Deploy the case and run its batch; returns the
    :class:`~repro.engine.core.BatchResult`."""
    net, engine = deploy_sharing_case(case)
    pool = batch_queries(case.schemas)
    origin = sorted(net.peer_ids())[case.origin % len(net.peer_ids())]
    return engine.execute_batch(
        [parse_search_for(pool[index]) for index in case.batch],
        origin=origin, limit=case.limit)
