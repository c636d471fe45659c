"""Distributed per-peer data statistics (synopses).

Every peer summarizes its local triple database into a compact
:class:`~repro.stats.synopsis.PeerSynopsis` — per-predicate triple
counts, distinct subject/object counts, a small top-k object-value
sketch, plus the active mapping edges it stores.  A digest is counted
on demand from the store's copy table
(:func:`~repro.stats.synopsis.digest_triples`) and cached by the peer
until its version moves; nothing is maintained per insert.  Digests
are versioned and merged with last-writer-wins-per-peer semantics
(commutative, idempotent, associative), so they can be disseminated by
*piggybacking* on traffic the overlay sends anyway (maintenance probes
and replica anti-entropy pushes — zero extra messages) and, under
churn, by an explicit anti-entropy pull.

The consumer is :mod:`repro.optimizer`: the registry of known digests
feeds a network-wide cardinality estimator that orders joins, prunes
reformulation fan-out and picks query strategies.
"""

from repro.stats.estimator import CardinalityEstimator
from repro.stats.gossip import StatsAntiEntropy
from repro.stats.synopsis import (
    MappingEdge,
    PeerSynopsis,
    PredicateDigest,
    SynopsisRegistry,
)

__all__ = [
    "CardinalityEstimator",
    "MappingEdge",
    "PeerSynopsis",
    "PredicateDigest",
    "StatsAntiEntropy",
    "SynopsisRegistry",
]
