"""GridVine reproduction: a self-organizing peer data management system.

This package reproduces *Self-Organizing Schema Mappings in the
GridVine Peer Data Management System* (Cudré-Mauroux et al., VLDB
2007).  It follows the paper's three-tier architecture:

``repro.simnet``
    The *Internet layer*: a deterministic discrete-event network
    simulator with configurable wide-area latency models and churn.

``repro.pgrid``
    The *structured overlay layer*: a from-scratch implementation of
    the P-Grid distributed access structure (binary trie, prefix
    routing, replica groups) exposing ``Retrieve(key)`` and
    ``Update(key, value)``.

``repro.mediation`` (with ``rdf``, ``storage``, ``schema``,
``mapping``, ``reformulation``, ``connectivity``, ``selforg``)
    The *semantic mediation layer*: triple storage indexed by subject,
    predicate and object; user-defined schemas; pairwise GAV schema
    mappings; query reformulation by view unfolding; and the
    self-organizing loop (connectivity indicator, automatic mapping
    creation, Bayesian mapping deprecation).

``repro.exec``
    The *streaming operator runtime*: every query executes as a DAG
    of small operators (scans, bound joins, reformulation fan-out,
    one answer per reformulation — join, project, dedup — and a
    collecting tail with the limit) through which row batches stream
    as they arrive.  Result limits are pushed into distributed
    execution — a satisfied limit cooperatively cancels all remaining
    fetches and fan-out, so selective queries stop spending messages
    the moment they have enough answers.

``repro.engine``
    The *query engine* on top of the mediation layer: an
    invalidation-aware cache of reformulation plans (keyed by
    structural query signature and mapping-graph version) and a
    batched multi-query executor that runs whole batches as one
    shared-scan operator DAG, deduplicating triple-pattern lookups
    across the batch — the hot-path optimisation for repeated /
    multi-user query traffic.

``repro.stats`` / ``repro.optimizer``
    The *statistics and optimizer layer*: every peer summarizes its
    triple database on demand into a compact versioned synopsis
    (per-predicate counts, distinct values, a top-k value sketch,
    known mapping edges), disseminated for free by piggybacking on
    overlay maintenance traffic and merged with CRDT semantics.  A
    cost-based optimizer turns the gossiped estimates into per-query
    decisions — join order and mode, reformulation pruning by
    expected yield, and the ``strategy="auto"`` choice among
    local/iterative/recursive — recorded on every outcome as a
    ``PlanDecision`` with estimated-vs-actual accounting.

``repro.resilience``
    Scripted churn scenarios on top of everything above: compose
    churn, overlay maintenance, self-organization and a query
    workload into one reproducible run, with recall measured against
    ground truth and per-query message counts kept exact by
    per-operation attribution.  Pairs with the peers' replica-aware
    failover to keep queries answering while peers crash and recover.

``repro.faultlab``
    The *deterministic fault lab* over all of the above: immutable,
    seeded fault schedules (message drops, duplicates, delay jitter,
    reordering, partitions with scheduled heals, crash-restarts)
    injected at the network's hook points, a library of system
    invariant checkers (routing coverage, replica agreement, synopsis
    CRDT convergence, engine cache coherence, recall bounds), and a
    randomized scenario explorer where every failure replays from its
    printed seed and shrinks to a minimal reproducer
    (``python -m repro chaos``).

``repro.datagen``
    Synthetic bioinformatic schemas, records and query workloads used
    by the examples and benchmarks (substituting the EBI/SRS data of
    the original demonstration).

Quickstart::

    from repro import GridVineNetwork
    net = GridVineNetwork.build(num_peers=32, seed=7)
    peer = net.random_peer()
    peer.insert_schema(my_schema)
    peer.insert_triples(my_triples)
    results = peer.search_for(my_query)
"""

from repro.rdf.terms import URI, Literal, Variable
from repro.rdf.triples import Triple
from repro.rdf.patterns import TriplePattern, ConjunctiveQuery
from repro.rdf.parser import parse_search_for
from repro.schema.model import Schema
from repro.mapping.model import MappingKind, PredicateCorrespondence, SchemaMapping
from repro.mediation.network import GridVineNetwork
from repro.mediation.peer import GridVinePeer
from repro.engine.core import QueryEngine

__version__ = "1.1.0"

__all__ = [
    "URI",
    "Literal",
    "Variable",
    "Triple",
    "TriplePattern",
    "ConjunctiveQuery",
    "parse_search_for",
    "Schema",
    "MappingKind",
    "PredicateCorrespondence",
    "SchemaMapping",
    "GridVineNetwork",
    "GridVinePeer",
    "QueryEngine",
    "__version__",
]
