"""The semantic mediation layer: GridVine peers and the network harness.

This package ties everything together.  A
:class:`~repro.mediation.peer.GridVinePeer` *is* a P-Grid peer (it
inherits the overlay protocol) extended with the mediation-layer
operations of the paper:

* ``Update(data)`` — :meth:`GridVinePeer.insert_triple` indexes the
  triple under the order-preserving hashes of its subject, predicate
  and object (three overlay updates);
* ``Update(schema)`` — :meth:`GridVinePeer.insert_schema` stores the
  schema definition at ``Hash(Schema Name)``;
* ``Update(mapping)`` — :meth:`GridVinePeer.insert_mapping` stores the
  mapping at the source schema's key space (both key spaces for
  bidirectional mappings) plus an incoming-edge marker at the target
  for degree accounting;
* ``Update(connectivity)`` — schema peers republish
  ``(Schema, InDegree, OutDegree)`` under ``Hash(Domain)`` whenever
  their mapping records change;
* ``SearchFor(query)`` — :meth:`GridVinePeer.search_for` resolves
  triple-pattern and conjunctive queries, optionally reformulating
  them across the mapping network with the iterative or recursive
  strategy of §4.

:class:`~repro.mediation.network.GridVineNetwork` builds a whole
simulated deployment (event loop + latency model + N peers) and offers
a synchronous façade used by the examples and benchmarks.  Mapping
mutations additionally fire issuing-path hooks
(:attr:`GridVinePeer.mapping_hooks`, relayed deployment-wide by
``GridVineNetwork.add_mapping_listener``) — the change feed that keeps
a :class:`~repro.engine.core.QueryEngine`'s plan cache and mapping
mirror consistent; ``GridVineNetwork.create_engine`` builds one.
"""

from repro.mediation.records import (
    ConnectivityRecord,
    IncomingMappingRecord,
    MappingRecord,
)
from repro.mediation.keys import domain_key, schema_key, term_key, triple_keys
from repro.mediation.query import QueryOutcome
from repro.mediation.peer import GridVinePeer
from repro.mediation.network import GridVineNetwork

__all__ = [
    "MappingRecord",
    "IncomingMappingRecord",
    "ConnectivityRecord",
    "term_key",
    "triple_keys",
    "schema_key",
    "domain_key",
    "QueryOutcome",
    "GridVinePeer",
    "GridVineNetwork",
]
