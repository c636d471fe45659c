"""Hypothesis strategies for trie assignments: node id -> path.

A :class:`TrieCase` is one assignment from the repo's path builders,
plus the routing redundancy and the rng seed a table build draws with:

- :func:`assign_paths`, split evenly or shaped by a skewed key sample,
  at a drawn replication and key width (a narrow width caps the depth,
  so leaves pile up replicas);
- :func:`build_by_exchanges` run to convergence, which is prefix-free;
- :func:`build_by_exchanges` stopped after a drawn number of meetings,
  where a peer's path may still be a proper prefix of another's — the
  only tries in which a leaf *above* a complementary prefix covers it.
"""

import random
from dataclasses import dataclass

from hypothesis import strategies as st

from repro.pgrid.construction import assign_paths, build_by_exchanges
from repro.util.hashing import order_preserving_hash
from repro.util.keys import Key

SOURCES = ("even", "key sample", "exchanges", "partial exchanges")


@dataclass(frozen=True)
class TrieCase:
    """An assignment, how it was made, and how to draw its tables."""

    source: str
    assignment: dict[str, Key]
    refs_per_level: int
    seed: int


@st.composite
def trie_cases(draw, max_peers: int = 24, source: str | None = None,
               refs_per_level: int | None = None):
    """A :class:`TrieCase` from one of :data:`SOURCES` (or from
    ``source``, at ``refs_per_level`` when given)."""
    num_peers = draw(st.integers(min_value=1, max_value=max_peers))
    if source is None:
        source = draw(st.sampled_from(SOURCES))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    if source == "exchanges":
        assignment = build_by_exchanges(num_peers, rng=rng)
    elif source == "partial exchanges":
        meetings = draw(st.integers(min_value=0, max_value=3 * num_peers))
        assignment = build_by_exchanges(num_peers, meetings=meetings,
                                        rng=rng)
    else:
        sample = None
        if source == "key sample":
            # A two-letter alphabet under the order-preserving hash: a
            # thin, hot band of the key space, split deeper than the rest.
            sample = [order_preserving_hash(word) for word in draw(
                st.lists(st.text("ab", min_size=1, max_size=8),
                         min_size=1, max_size=40))]
        assignment = assign_paths(
            num_peers, key_sample=sample,
            replication=draw(st.integers(min_value=1, max_value=4)),
            key_bits=draw(st.sampled_from((2, 4, 128))), rng=rng)
    return TrieCase(
        source=source,
        assignment=assignment,
        refs_per_level=refs_per_level or draw(
            st.integers(min_value=1, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
