"""A finished operation leaves only its summary, on either engine.

A workload driver submits thousands of operations and never calls
``result``: it reads the summaries from ``engine.completed`` once the
run is quiet.  So the completion path itself must let go of
everything else — the op's future, its ``OpResult`` and the value
list — on the single loop as on the sharded transport, which never
kept them.  What is left after quiescence is exactly the summaries,
equal on one and on four shards, and ``result(ref)`` of an op that
has completed answers at once, without firing an event.
"""

import gc
import types

from repro.pgrid.peer import OpResult
from repro.pgrid.scaleout import (
    ScaleoutSpec,
    _make_peer,
    _preload,
    build_deployment,
)
from repro.simnet.events import Future
from repro.simnet.shard import (
    ShardedTransport,
    SingleLoopEngine,
    partition_paths,
)

#: pools of one reference: routing draws nothing that depends on the
#: order messages arrive in, so both engines take the same routes
SPEC = ScaleoutSpec(num_peers=200, replication=2, refs_per_level=1,
                    seed=3, num_keys=40, ops_per_wave=120, num_waves=1)

#: what the reachability walk does not enter: code, classes and
#: modules lead to every global of the process, not to engine state
_OPAQUE = (type, types.ModuleType, types.FunctionType,
           types.BuiltinFunctionType, types.CodeType)


def submit_wave(engine):
    """Attach :data:`SPEC`'s preloaded peers to ``engine`` and submit
    its wave of retrieves, unattributed; returns the refs."""
    deployment = build_deployment(SPEC)
    peers = {node_id: _make_peer(SPEC, deployment, node_id)
             for node_id in sorted(deployment.assignment)}
    _preload(deployment, peers)
    owner = partition_paths(deployment.assignment, engine.num_shards)
    for node_id, peer in peers.items():
        engine.add_peer(peer, owner[node_id])
    return [engine.submit(origin, "retrieve", key)
            for origin, key in deployment.waves[0]]


def reachable(root, classes):
    """Instances of ``classes`` reachable from ``root``."""
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if isinstance(obj, classes):
            found.append(obj)
        for child in gc.get_referents(obj):
            if id(child) not in seen and not isinstance(child, _OPAQUE):
                seen.add(id(child))
                stack.append(child)
    return found


def test_a_finished_op_leaves_only_its_summary():
    single = SingleLoopEngine(seed=SPEC.seed)
    refs = submit_wave(single)
    single.run_until_quiescent()
    assert sorted(single.completed) == refs
    assert reachable(single, (Future, OpResult)) == []

    with ShardedTransport(4, seed=SPEC.seed) as sharded:
        assert submit_wave(sharded) == refs
        sharded.run_until_quiescent()
        assert reachable(sharded, (Future, OpResult)) == []
    assert sharded.completed == single.completed


def test_result_of_a_completed_op_fires_no_event():
    engine = SingleLoopEngine(seed=SPEC.seed)
    first, *rest = submit_wave(engine)
    engine.run_until_quiescent()
    summary = engine.completed[first]
    # A pending op queues events that a wait would fire.
    pending = engine.submit(engine.net.node_ids()[0], "retrieve",
                            build_deployment(SPEC).waves[0][0][1],
                            attribute=True)
    loop = engine.net.loop
    fired = loop.events_processed
    assert loop.live_events > 0
    assert engine.result(first) == (summary, 0)
    assert loop.events_processed == fired
    _summary, messages = engine.result(pending)
    assert messages > 0
    assert engine.net.metrics.operations == {}
    assert sorted(engine.completed) == rest
