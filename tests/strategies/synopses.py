"""Hypothesis strategies for synopsis digests and small triples.

Value pools are deliberately tiny so generated digests collide on peer
ids, versions and predicates — exactly the cases where merge-order
independence (commutativity/idempotence) could break.
"""

from hypothesis import strategies as st

from repro.rdf.terms import URI, Literal
from repro.rdf.triples import Triple
from repro.stats.synopsis import MappingEdge, PeerSynopsis, PredicateDigest

subjects = st.sampled_from([URI(f"S:e{i}") for i in range(5)])
predicates = st.sampled_from(
    [URI(f"S#p{i}") for i in range(3)] + [URI(f"T#q{i}") for i in range(2)]
)
objects = st.sampled_from(
    [Literal(f"v{i}") for i in range(4)] + [URI("S:e0")]
)

#: small ground triples over colliding term pools
triples = st.builds(Triple, subjects, predicates, objects)

predicate_digests = st.builds(
    PredicateDigest,
    predicate=st.sampled_from(["S#p0", "S#p1", "T#q0"]),
    triples=st.integers(min_value=0, max_value=60),
    distinct_subjects=st.integers(min_value=0, max_value=20),
    distinct_objects=st.integers(min_value=0, max_value=20),
    top_objects=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]),
                  st.integers(min_value=1, max_value=9)),
        max_size=3,
    ).map(tuple),
)

mapping_edges = st.builds(
    MappingEdge,
    source=st.sampled_from(["S", "T"]),
    target=st.sampled_from(["T", "U"]),
    confidence=st.sampled_from([0.5, 0.8, 1.0]),
)

#: digests with colliding peer ids and versions
peer_synopses = st.builds(
    PeerSynopsis,
    peer_id=st.sampled_from(["n0", "n1", "n2"]),
    version=st.integers(min_value=0, max_value=4),
    triples=st.integers(min_value=0, max_value=100),
    predicates=st.lists(predicate_digests, max_size=3).map(tuple),
    mappings=st.lists(mapping_edges, max_size=2).map(tuple),
)

#: the receiving peer's own id in a gossip history
OWN_ID = "me"

#: digests over more peers than one gossip batch holds, so round-robin
#: windows wrap; tiny payloads, so distinct objects tie on version
gossip_digests = st.builds(
    PeerSynopsis,
    peer_id=st.sampled_from([f"n{i}" for i in range(7)] + [OWN_ID]),
    version=st.integers(min_value=0, max_value=3),
    triples=st.integers(min_value=0, max_value=2),
)


@st.composite
def gossip_histories(draw, max_steps=8):
    """A list of registry steps, each one of

    * ``("merge", digests, skip)`` — ``skip`` is ``None``, the own id
      (what a peer's own ``receive_synopses`` passes) or another peer;
    * ``("register", digest)`` — may register the own id by hand;
    * ``("replay", index, skip)`` — merge an earlier step's digest
      objects again (``index`` modulo the steps so far), which is how
      gossip re-delivers the very object a registry already holds.
    """
    skips = st.sampled_from([None, OWN_ID, "n0"])
    step = st.one_of(
        st.tuples(st.just("merge"),
                  st.lists(gossip_digests, max_size=6), skips),
        st.tuples(st.just("register"), gossip_digests),
        st.tuples(st.just("replay"), st.integers(min_value=0, max_value=9),
                  skips),
    )
    return draw(st.lists(step, max_size=max_steps))
