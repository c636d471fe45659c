"""Mediation through the engine surface: GridVine queries at scale.

:class:`ShardedGridVine` is the submit-based twin of
:class:`~repro.mediation.network.GridVineNetwork`: it exposes the same
query surface (``search_for``, the :meth:`run_batch` seam a
:class:`~repro.engine.core.QueryEngine` executes through) but needs
nothing of the deployment except the engine surface (``submit /
run_until_quiescent / completed / metrics_snapshot``, see
:class:`repro.simnet.shard._Engine`).  So it runs unchanged over a
:class:`~repro.simnet.shard.ShardedTransport` or a
:class:`~repro.simnet.shard.SingleLoopEngine` — which is how the
scale-out driver gets equal outcomes, message counts and traces on
both.

The division of labour:

* the peer-side entry points (``GridVinePeer.search_for``,
  ``GridVinePeer.execute_planned_batch``) run *where the peer lives* —
  the controller reaches them through ``submit``, never through a
  direct method call, so inline and forked workers behave identically;
* per-query message attribution uses the engine's ``op:<ref>`` scopes
  (``attribute=True``), the equivalent of ``GridVineNetwork``'s
  ``searchfor:<n>`` / ``batch:<n>`` operation tags — counts are summed
  across every shard the query's causal chain touched;
* engine planning stays controller-side: the engine's mapping-graph
  mirror is backfilled by replaying the deployment's known mappings
  through :meth:`add_mapping_listener`, not by crawling the overlay
  (peers live on the shards; in process mode, in other processes).

Because worker processes exchange submissions and summaries over
pipes, everything crossing the boundary (queries, plans, outcomes)
must be picklable — which the mediation data model already is (frozen
value objects throughout).
"""

from __future__ import annotations

from typing import Any

from repro.simnet.events import SimulationError


def passthrough(result: Any) -> Any:
    """Ship a :class:`QueryOutcome` or an ``(outcomes, fetch_stats)``
    batch result back to the controller unchanged (module-level:
    process workers pickle it by reference)."""
    return result


class _PeerHandle:
    """Controller-side stand-in for a peer living on a shard.

    Carries exactly what the engine needs (an origin id for
    submissions and trace roots); it deliberately has no behaviour —
    calling through it would bypass the transport boundary.
    """

    __slots__ = ("node_id", "optimizer")

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        #: engines ask the origin peer for its cost-based optimizer;
        #: peer state is not reachable from the controller, so
        #: optimizing engines are rejected in :meth:`run_batch`
        self.optimizer = None


class ShardedGridVine:
    """Query facade over a mediation deployment on either engine.

    Parameters
    ----------
    transport:
        The engine (:class:`~repro.simnet.shard.ShardedTransport` or
        :class:`~repro.simnet.shard.SingleLoopEngine`) holding the
        deployment's :class:`~repro.mediation.peer.GridVinePeer` s.
    mappings:
        The deployment's known schema mappings (both directions of
        every bidirectional insert).  Replayed as ``"insert"`` events
        to every registered mapping listener, so engines created
        against this facade start with a complete mirror.
    """

    def __init__(self, transport: Any,
                 mappings: tuple | list = ()) -> None:
        self.transport = transport
        self._mappings = list(mappings)
        self._listeners: list = []

    # -- the GridVineNetwork surface engines and harnesses consume -----

    def add_mapping_listener(self, listener) -> None:
        """Subscribe ``fn(action, mapping)``; immediately replays the
        deployment's known mappings as ``"insert"`` events (the
        sharded substitute for ``sync_from_overlay``)."""
        self._listeners.append(listener)
        for mapping in self._mappings:
            listener("insert", mapping)

    def _origin(self, origin: str | None) -> _PeerHandle:
        if origin is None:
            raise SimulationError(
                "submitted operations need an explicit origin peer")
        return _PeerHandle(origin)  # ``submit`` rejects unknown ids

    def create_engine(self, max_hops: int = 5,
                      cache_capacity: int = 256):
        """A :class:`~repro.engine.core.QueryEngine` bound to this
        deployment (mirror backfilled from the deployment's
        mappings; batches execute through :meth:`run_batch`)."""
        from repro.engine.core import QueryEngine

        return QueryEngine(self, domain=None, max_hops=max_hops,
                           cache_capacity=cache_capacity)

    # -- transport-boundary execution ----------------------------------

    def search_for(self, query, strategy: str = "iterative",
                   max_hops: int = 5, origin: str | None = None,
                   limit: int | None = None):
        """Issue one ``SearchFor`` from ``origin`` and run the engine
        to quiescence; returns the :class:`QueryOutcome` with
        ``messages`` filled from the merged per-shard attribution."""
        peer = self._origin(origin)
        ref = self.transport.submit(
            peer.node_id, "search_for", query, strategy, max_hops, limit,
            summarize=passthrough, attribute=True)
        self.transport.run_until_quiescent()
        outcome = self.transport.completed[ref]
        outcome.messages = self._operation_messages(ref)
        return outcome

    def run_batch(self, peer, queries, plans, limit: int | None = None,
                  optimizer: Any = None):
        """Execute a pre-planned engine batch where ``peer`` lives.

        The submit-based implementation of the ``run_batch`` seam under
        :meth:`repro.engine.core.QueryEngine.execute_batch`: the
        planned batch crosses the transport boundary as one submitted
        ``execute_planned_batch`` operation, runs concurrently with
        whatever else is queued for the window, and reports
        ``(outcomes, fetch_stats, messages)`` exactly like the
        in-process seam.
        """
        if optimizer is not None:
            raise SimulationError(
                "cost-based optimization needs peer-side state and is "
                "not available through the submit boundary")
        ref = self.transport.submit(
            peer.node_id, "execute_planned_batch", list(queries),
            [list(plan) for plan in plans], limit,
            summarize=passthrough, attribute=True)
        self.transport.run_until_quiescent()
        outcomes, fetch_stats = self.transport.completed[ref]
        return outcomes, fetch_stats, self._operation_messages(ref)

    def _operation_messages(self, ref: int) -> int:
        merged = self.transport.metrics_snapshot()
        return merged["operations"].get(f"op:{ref}", 0)
