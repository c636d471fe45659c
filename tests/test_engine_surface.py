"""The one engine surface, on both clocks.

:class:`SingleLoopEngine` and :class:`ShardedTransport` run every
message through the same send/deliver gate and every submission through
the same ``Shard._issue``; these tests pin the places where the two
used to drift (fault-check order) and the failure path of forked
workers.
"""

import multiprocessing

import pytest

from repro.faultlab.injector import install_plan
from repro.faultlab.plan import FaultPlan, Partition
from repro.pgrid.peer import PGridPeer
from repro.simnet.events import SimulationError
from repro.simnet.latency import ConstantLatency
from repro.simnet.shard import ShardedTransport, SingleLoopEngine
from repro.util.keys import Key


def two_peer_engine(engine, remote_shard=0):
    """``peer-a`` (shard 0) routes key ``1`` to ``peer-b``."""
    a = PGridPeer("peer-a", Key("0"), max_retries=1)
    b = PGridPeer("peer-b", Key("1"))
    a.routing_table[0] = ["peer-b"]
    b.routing_table[0] = ["peer-a"]
    b.local_insert(Key("1"), "needle")
    engine.add_peer(a, 0)
    engine.add_peer(b, remote_shard)
    return a, b


def engines():
    latency = ConstantLatency(0.05)
    return [SingleLoopEngine(latency=latency, seed=3),
            ShardedTransport(2, latency=latency, seed=3)]


class TestFaultCheckOrder:
    def test_offline_local_destination_under_a_partition(self):
        # The gate asks "is the destination offline?" before it asks
        # the injector: a message to an offline peer on the far side of
        # a cut is an ``offline`` drop and no partition fault, on both
        # engines (the shard gate used to ask the injector first).
        cut = FaultPlan(seed=1, faults=(
            Partition(side_a=("peer-a",), side_b=("peer-b",)),))
        snapshots = []
        for engine in engines():
            _a, b = two_peer_engine(engine)  # both on shard 0: local
            b.online = False
            install_plan(engine, cut)
            with engine:
                engine.submit("peer-a", "retrieve", Key("1"))
                engine.run_until_quiescent()
                assert engine.completed[0][0] is False
            snapshots.append(engine.metrics_snapshot())
        single, sharded = snapshots
        assert single["drops_by_reason"] == {"offline": 2}  # try + retry
        assert single["faults_by_kind"] == {}
        assert sharded["drops_by_reason"] == single["drops_by_reason"]
        assert sharded["faults_by_kind"] == single["faults_by_kind"]
        assert sharded["messages_by_kind"] == single["messages_by_kind"]


class TestSubmitContract:
    @pytest.mark.parametrize("engine", engines(),
                             ids=["single-loop", "sharded"])
    def test_unknown_node_is_a_simulation_error(self, engine):
        two_peer_engine(engine)
        with engine, pytest.raises(SimulationError, match="nobody"):
            engine.submit("nobody", "retrieve", Key("1"))


def _boom(message):
    raise RuntimeError("boom in the route handler")


class TestForkedWorkerFailure:
    def test_handler_exception_names_the_shard_and_leaves_no_children(self):
        transport = ShardedTransport(2, latency=ConstantLatency(0.05),
                                     seed=3, mode="process")
        _a, b = two_peer_engine(transport, remote_shard=1)
        b.register_handler("route", _boom)
        with pytest.raises(SimulationError) as failure:
            with transport:
                transport.submit("peer-a", "retrieve", Key("1"))
                transport.run_until_quiescent()
        message = str(failure.value)
        assert "shard 1 failed in the window ending at 0.1" in message
        assert "RuntimeError: boom in the route handler" in message
        assert multiprocessing.active_children() == []
        with pytest.raises(SimulationError, match="workers are gone"):
            transport.stop()

    def test_context_manager_joins_workers_on_a_clean_exit(self):
        transport = ShardedTransport(2, latency=ConstantLatency(0.05),
                                     seed=3, mode="process")
        two_peer_engine(transport, remote_shard=1)
        with transport:
            transport.submit("peer-a", "retrieve", Key("1"))
            transport.run_until_quiescent()
        assert transport.completed[0][0] is True
        assert multiprocessing.active_children() == []
        assert len(transport.stop()) == 2  # final stats survive the join
