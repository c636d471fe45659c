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
"""

import random
from dataclasses import dataclass

from hypothesis import strategies as st

from repro.mediation.network import GridVineNetwork
from repro.mediation.peer import GridVinePeer
from repro.pgrid.construction import assign_paths, populate_routing_tables
from repro.rdf.terms import URI, Literal
from repro.rdf.triples import Triple
from repro.simnet.shard import partition_paths

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
