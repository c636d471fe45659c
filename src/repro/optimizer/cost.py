"""The optimizer's cost model: messages, round trips, shipped rows.

The simulated overlay gives every cost component a concrete unit:

* a routed operation costs roughly ``depth/2`` greedy forwarding hops
  (each one message) plus the direct reply — :func:`route_messages`;
* sequential protocol steps (bound-join rounds, BFS waves) each pay a
  full round-trip latency, which the model weighs against messages
  via :data:`LATENCY_WEIGHT`;
* shipped rows model the ``values_shipped`` metric (parallel joins
  fetch whole extents; bound joins substitute first and ship less),
  weighed via :data:`VOLUME_WEIGHT`.

The weights are deliberately coarse constants — the optimizer only
needs cost *ordering* to be right, and every estimate it ranks is
itself approximate.

The recursive-strategy constants encode a measured property of the
deployment: the overlay hashes keys order-preservingly, so a predicate
key ``Hash("S#attr")`` is prefix-close to its schema key ``Hash("S")``
— a schema peer executing a delegated reformulation resolves its
patterns (nearly) locally, while the iterative origin pays full-depth
routing for every schema-space *and* pattern fetch.
"""

from __future__ import annotations

#: cost of one network message
MESSAGE_WEIGHT = 1.0
#: cost of one sequential round trip (latency paid in full) — used by
#: the join-mode choice, where bound joins trade round trips for
#: shipped volume
LATENCY_WEIGHT = 3.0
#: cost of one result row on the wire
VOLUME_WEIGHT = 0.02
#: factor a challenger plan must undercut the default by before the
#: optimizer switches join modes (estimates are noisy; switching on a
#: coin flip would thrash)
SWITCH_MARGIN = 0.8
#: messages per recursive forward between schema peers (schema keys
#: cluster under the order-preserving hash: short hops)
REFO_FORWARD_COST = 1.0
#: fraction of a full routed fetch a schema peer pays to execute a
#: received reformulation (predicate keys are prefix-close to the
#: executing schema peer's own key space)
REFO_EXEC_LOCALITY = 0.25
#: fixed per-handler messages of the recursive protocol (one report
#: reply + one direct results message)
REFO_HANDLER_OVERHEAD = 2.0


def route_messages(depth: int) -> float:
    """Expected messages of one origin-routed overlay operation.

    Greedy prefix routing resolves half the trie depth on average,
    plus one delivery at the responsible peer and one direct reply.

    >>> route_messages(6)
    5.0
    """
    return max(1.0, depth / 2.0) + 2.0


def recursive_handler_messages(patterns: int, depth: int) -> float:
    """Messages one recursive-protocol handler costs."""
    return (REFO_FORWARD_COST
            + patterns * route_messages(depth) * REFO_EXEC_LOCALITY
            + REFO_HANDLER_OVERHEAD)


def combine(messages: float, round_trips: float,
            rows_shipped: float) -> float:
    """Total cost of one candidate plan."""
    return (MESSAGE_WEIGHT * messages
            + LATENCY_WEIGHT * round_trips
            + VOLUME_WEIGHT * rows_shipped)
