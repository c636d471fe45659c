"""Shared utilities: binary keys, hashing, identifiers, similarity measures.

These are the lowest-level building blocks of the reproduction.  They
are deliberately dependency-free so every other subpackage can import
them without cycles.
"""

from repro.util.keys import Key, common_prefix_length
from repro.util.hashing import order_preserving_hash, uniform_hash
from repro.util.guid import mint_guid
from repro.util.similarity import (
    jaccard_similarity,
    jaro_winkler,
    ngram_similarity,
)

__all__ = [
    "Key",
    "common_prefix_length",
    "order_preserving_hash",
    "uniform_hash",
    "mint_guid",
    "ngram_similarity",
    "jaro_winkler",
    "jaccard_similarity",
]
