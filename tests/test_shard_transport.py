"""Determinism and equivalence guarantees of the sharded transport.

Three tiers of pinning:

* **run-to-run** — the same spec produces bit-identical observable
  traces (op ref -> summarized outcome) on repeated runs;
* **inline vs process** — the worker mode is an implementation detail:
  forked shard workers produce the same trace as the in-process loop
  over shard objects, byte for byte;
* **sharded vs single-loop** — across *engines* the guarantee is
  statistical: identical success counts when nothing churns (the
  deployment fixes every outcome), close recall under churn (peers
  consume their private rng in message-arrival order, which
  legitimately differs between engines).
"""

import pytest

from repro.pgrid.construction import assign_paths
from repro.pgrid.peer import PGridPeer
from repro.pgrid.scaleout import (
    ScaleoutSpec,
    build_deployment,
    run_inprocess,
    run_sharded,
)
from repro.simnet.churn import exponential_schedule
from repro.simnet.events import SimulationError
from repro.simnet.latency import ConstantLatency, LogNormalWANLatency
from repro.simnet.shard import ShardedTransport, partition_paths
from repro.util.keys import Key


def small_spec(**overrides):
    """A deployment small enough for test-suite latency budgets."""
    defaults = dict(num_peers=300, replication=3, seed=7, num_shards=3,
                    num_keys=50, ops_per_wave=25, num_waves=2,
                    duration=40.0, mean_uptime=60.0, mean_downtime=20.0,
                    wave_interval=18.0)
    defaults.update(overrides)
    return ScaleoutSpec(**defaults)


# ----------------------------------------------------------------------
# partition_paths: trie key space -> contiguous shard runs
# ----------------------------------------------------------------------

class TestPartitionPaths:
    def test_covers_every_node_with_valid_shard_ids(self):
        assignment = assign_paths(200, replication=2)
        owner = partition_paths(assignment, 4)
        assert set(owner) == set(assignment)
        assert set(owner.values()) <= set(range(4))

    def test_replica_groups_stay_intra_shard(self):
        # All peers sharing a leaf path land on one shard, so replica
        # traffic never crosses a window barrier.
        assignment = assign_paths(200, replication=4)
        owner = partition_paths(assignment, 4)
        by_path = {}
        for node_id, path in assignment.items():
            by_path.setdefault(path.bits, set()).add(owner[node_id])
        assert all(len(shards) == 1 for shards in by_path.values())

    def test_contiguous_in_trie_order_and_balanced(self):
        assignment = assign_paths(400, replication=2)
        owner = partition_paths(assignment, 4)
        leaf_shards = sorted({(path.bits, owner[node_id])
                              for node_id, path in assignment.items()})
        shard_sequence = [shard for _bits, shard in leaf_shards]
        assert shard_sequence == sorted(shard_sequence)
        counts = [0, 0, 0, 0]
        for node_id in assignment:
            counts[owner[node_id]] += 1
        assert max(counts) <= 2 * min(counts)

    def test_single_shard_owns_everything(self):
        assignment = assign_paths(50)
        assert set(partition_paths(assignment, 1).values()) == {0}


# ----------------------------------------------------------------------
# exponential_schedule: engine-neutral churn traces
# ----------------------------------------------------------------------

class TestExponentialSchedule:
    def test_deterministic_and_sorted(self):
        nodes = [f"peer-{i}" for i in range(40)]
        a = exponential_schedule(nodes, 30.0, 10.0, 200.0, seed=5)
        b = exponential_schedule(nodes, 30.0, 10.0, 200.0, seed=5)
        assert a == b and a
        assert a == sorted(a, key=lambda t: (t[0], t[1]))
        assert all(0 < t < 200.0 for t, _n, _o in a)

    def test_alternates_and_never_strands_a_node(self):
        nodes = [f"peer-{i}" for i in range(40)]
        toggles = exponential_schedule(nodes, 20.0, 15.0, 300.0, seed=1)
        per_node = {}
        for _t, node_id, online in toggles:
            per_node.setdefault(node_id, []).append(online)
        for states in per_node.values():
            assert states[0] is False          # first toggle: go down
            assert states[-1] is True          # trace ends online
            assert all(x != y for x, y in zip(states, states[1:]))

    def test_seed_changes_trace(self):
        nodes = [f"peer-{i}" for i in range(40)]
        assert exponential_schedule(nodes, 30.0, 10.0, 200.0, seed=1) \
            != exponential_schedule(nodes, 30.0, 10.0, 200.0, seed=2)


# ----------------------------------------------------------------------
# Windowed transport misuse
# ----------------------------------------------------------------------

class TestTransportGuards:
    def _transport(self, **kwargs):
        kwargs.setdefault("latency", ConstantLatency(0.05))
        return ShardedTransport(2, **kwargs)

    def _peer(self, name="peer-0", path="0"):
        return PGridPeer(name, Key(path))

    def test_requires_lookahead_or_explicit_window(self):
        # A WAN model with min_delay() == 0 has no conservative
        # lookahead; the transport must refuse rather than deadlock.
        with pytest.raises(SimulationError):
            ShardedTransport(2, latency=LogNormalWANLatency())

    def test_rejects_duplicate_and_post_start_peers(self):
        transport = self._transport()
        transport.add_peer(self._peer(), 0)
        with pytest.raises(SimulationError):
            transport.add_peer(self._peer(), 1)
        transport.start()
        with pytest.raises(SimulationError):
            transport.add_peer(self._peer("peer-1", "1"), 1)
        transport.stop()

    def test_rejects_toggles_for_unknown_nodes_and_past_times(self):
        transport = self._transport()
        transport.add_peer(self._peer(), 0)
        with pytest.raises(SimulationError):
            transport.set_online_at(1.0, "nobody", False)
        transport.set_online_at(1.0, "peer-0", False)
        transport.set_online_at(2.0, "peer-0", True)
        transport.run_until(5.0)
        with pytest.raises(SimulationError):
            transport.set_online_at(3.0, "peer-0", False)
        transport.stop()


# ----------------------------------------------------------------------
# Tier 1: bit-identical within the sharded engine
# ----------------------------------------------------------------------

class TestShardedDeterminism:
    def test_run_to_run_identical(self):
        first = run_sharded(small_spec())
        second = run_sharded(small_spec())
        assert first.outcomes == second.outcomes
        assert first.messages_sent == second.messages_sent
        assert first.events_processed == second.events_processed

    def test_run_to_run_identical_under_churn(self):
        first = run_sharded(small_spec(churn=True))
        second = run_sharded(small_spec(churn=True))
        assert first.outcomes == second.outcomes
        assert first.messages_sent == second.messages_sent

    def test_inline_matches_process_workers(self):
        spec = small_spec(churn=True, num_shards=2)
        deployment = build_deployment(spec)
        inline = run_sharded(small_spec(churn=True, num_shards=2,
                                        mode="inline"), deployment)
        forked = run_sharded(small_spec(churn=True, num_shards=2,
                                        mode="process"), deployment)
        assert inline.outcomes == forked.outcomes
        assert inline.messages_sent == forked.messages_sent
        assert inline.events_processed == forked.events_processed

    def test_shard_count_preserves_success_outcomes(self):
        # Different shard counts window the same traffic differently,
        # but all-online the per-op success verdicts cannot change.
        spec = small_spec()
        deployment = build_deployment(spec)
        reports = [run_sharded(small_spec(num_shards=n), deployment)
                   for n in (1, 2, 4)]
        verdicts = [{ref: out[0] for ref, out in r.outcomes.items()}
                    for r in reports]
        assert verdicts[0] == verdicts[1] == verdicts[2]


# ----------------------------------------------------------------------
# Tier 2: statistical equivalence across engines
# ----------------------------------------------------------------------

class TestEngineEquivalence:
    def test_all_online_success_counts_identical(self):
        spec = small_spec()
        deployment = build_deployment(spec)
        sharded = run_sharded(spec, deployment)
        single = run_inprocess(spec, deployment)
        assert sharded.ops_completed == sharded.ops_issued
        assert single.ops_completed == single.ops_issued
        assert sharded.successes == single.successes == spec.num_waves \
            * spec.ops_per_wave

    def test_churn_recall_close_and_all_ops_complete(self):
        spec = small_spec(churn=True)
        deployment = build_deployment(spec)
        sharded = run_sharded(spec, deployment)
        single = run_inprocess(spec, deployment)
        assert sharded.ops_completed == sharded.ops_issued
        assert single.ops_completed == single.ops_issued
        assert abs(sharded.success_rate - single.success_rate) < 0.15
        assert sharded.successes > 0 and single.successes > 0
