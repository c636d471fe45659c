"""Hypothesis strategies for uploads: corpora spread over overlays.

Terms come from tiny pools, so predicates repeat across triples,
objects repeat across subjects, whole triples repeat, and a subject
URI and an object with the same text share one key (a triple can land
twice under one key).  Those are exactly the repeats a set-at-a-time
upload groups by.  An :class:`UploadCase` spreads such a corpus over a
few uploads from drawn origins on an overlay of drawn size,
replication and routing redundancy, then removes a few of the uploaded
triples.  :func:`deploy_upload_case` attaches a case's overlay to an
engine.  :func:`key_group_scripts` is the same repeats at one peer:
the key groups a write applies there, with removes between them.
:func:`mixed_writes` is whole writes at one peer, their key groups
mixing such triples with schemas and the three mediation records.
"""

import random
from dataclasses import dataclass

from hypothesis import strategies as st

from repro.mapping.model import SchemaMapping
from repro.mediation.network import GridVineNetwork
from repro.mediation.peer import GridVinePeer
from repro.mediation.records import (
    ConnectivityRecord,
    IncomingMappingRecord,
    MappingRecord,
)
from repro.pgrid.construction import assign_paths, populate_routing_tables
from repro.rdf.terms import URI, Literal
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.simnet.shard import partition_paths

from strategies.values import correspondences

_SUBJECTS = ["s1", "s2", "s3", "o1"]
_PREDICATES = ["p1", "p2"]
_OBJECTS = ["o1", "o2", "s1"]

_objects = st.sampled_from(_OBJECTS)


def corpora(max_size: int = 16):
    """Lists of triples over the pools (repeats included)."""
    return st.lists(st.builds(
        Triple,
        st.sampled_from(_SUBJECTS).map(URI),
        st.sampled_from(_PREDICATES).map(URI),
        st.one_of(_objects.map(URI), _objects.map(Literal)),
    ), max_size=max_size)


@dataclass(frozen=True)
class UploadCase:
    """One overlay, the uploads into it and the removals after them.

    ``uploads`` and ``removals`` name their origin by index into the
    sorted peer ids.
    """

    num_peers: int
    replication: int
    refs_per_level: int
    seed: int
    uploads: tuple[tuple[int, tuple[Triple, ...]], ...]
    removals: tuple[tuple[int, Triple], ...]


@st.composite
def upload_cases(draw, max_peers: int = 10):
    """An :class:`UploadCase`: a corpus cut into up to four uploads."""
    num_peers = draw(st.integers(min_value=1, max_value=max_peers))
    corpus = draw(corpora())
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=len(corpus)), max_size=3)))
    bounds = [0, *cuts, len(corpus)]
    origins = st.integers(min_value=0, max_value=num_peers - 1)
    uploads = tuple((draw(origins), tuple(corpus[low:high]))
                    for low, high in zip(bounds, bounds[1:]))
    removals = tuple(draw(st.lists(
        st.tuples(origins, st.sampled_from(corpus)), max_size=3))
    ) if corpus else ()
    return UploadCase(
        num_peers=num_peers,
        replication=draw(st.integers(min_value=1,
                                     max_value=min(3, num_peers))),
        refs_per_level=draw(st.integers(min_value=1, max_value=2)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        uploads=uploads,
        removals=removals,
    )


@st.composite
def key_group_scripts(draw, max_steps: int = 8):
    """A peer's store mutations: ``("add", group)`` steps, each the
    values tuple of one key group, and ``("remove", triple)`` steps.

    Groups draw from one corpus, so a triple repeats inside a group and
    across groups; removes name corpus triples, stored or not.
    """
    corpus = draw(corpora(max_size=10).filter(bool))
    members = st.sampled_from(corpus)
    steps = st.one_of(
        st.tuples(st.just("add"),
                  st.lists(members, max_size=6).map(tuple)),
        st.tuples(st.just("remove"), members))
    return tuple(draw(st.lists(steps, max_size=max_steps)))


#: schema names the drawn records share, so a mapping's endpoint is
#: often a schema stored at the same peer
_SCHEMA_NAMES = ["A", "B", "C"]

#: keys a drawn write lands under (a peer applies whatever it is sent)
_KEY_BITS = ["0", "01", "011", "1", "10"]


@st.composite
def mediation_records(draw):
    """A non-triple value a mediation peer stores: a schema, a mapping
    at its source or its target, or a connectivity record, all over
    :data:`_SCHEMA_NAMES` (so versions and degrees race)."""
    names = st.sampled_from(_SCHEMA_NAMES)
    kind = draw(st.sampled_from(["schema", "out", "in", "connectivity"]))
    if kind == "schema":
        return Schema(draw(names), draw(st.lists(
            st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3)),
            domain=draw(st.sampled_from(["d1", "d2"])))
    if kind == "connectivity":
        degree = st.integers(min_value=0, max_value=3)
        return ConnectivityRecord(
            draw(names), draw(degree), draw(degree),
            (draw(degree), draw(st.sampled_from(["n0", "n1"]))))
    source, target = draw(st.lists(names, min_size=2, max_size=2,
                                   unique=True))
    mapping = SchemaMapping(
        draw(st.sampled_from(["m1", "m2", "m3"])), source, target,
        [draw(correspondences(source, target))],
        deprecated=draw(st.booleans()))
    return (MappingRecord if kind == "out" else IncomingMappingRecord)(
        mapping)


@st.composite
def mixed_writes(draw, max_writes: int = 4):
    """Writes one peer applies in turn, each ``(action, {key bits:
    values})``: mostly inserts, whose key groups mix corpus triples
    (repeats included) with :func:`mediation_records`, and some
    removes drawn from the same values."""
    corpus = draw(corpora(max_size=8))
    records = mediation_records()
    values = st.one_of(st.sampled_from(corpus), records) if corpus \
        else records
    groups = st.dictionaries(
        st.sampled_from(_KEY_BITS),
        st.lists(values, max_size=5).map(tuple), min_size=1, max_size=4)
    actions = st.sampled_from(["insert", "insert", "insert", "remove"])
    return tuple(draw(st.lists(st.tuples(actions, groups), min_size=1,
                               max_size=max_writes)))


def deploy_upload_case(case, engine) -> GridVineNetwork:
    """The overlay of ``case`` (any object with its four overlay
    fields), its peers attached to ``engine``; the same peers, paths
    and tables on every engine."""
    rng = random.Random(case.seed)
    assignment = assign_paths(case.num_peers, replication=case.replication,
                              rng=rng)
    peers = {node_id: GridVinePeer(node_id, path, rng=rng.random())
             for node_id, path in sorted(assignment.items())}
    populate_routing_tables(peers, refs_per_level=case.refs_per_level,
                            rng=rng)
    owner = partition_paths(assignment, engine.num_shards)
    for node_id, peer in peers.items():
        engine.add_peer(peer, owner[node_id])
    return GridVineNetwork(engine, peers)
