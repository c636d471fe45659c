"""Mediation on the sharded transport: GridVine queries, engine
batches and fault injection through :class:`ShardedTransport`.

The tentpole guarantee is stronger than the retrieve workload's: with
``refs_per_level=1`` and ``replication=1`` the query path makes no
consequential rng draws, so one mediation deployment produces
*bit-identical per-query outcomes* — success flags, result rows,
reformulation counts and exact attributed message counts — on the
single-loop engine and on the sharded engine at any shard count, in
either worker mode.

Fault injection rides the same transport seam: one
:class:`~repro.faultlab.plan.FaultPlan` installs per-shard injectors,
partitions account identically to the single-loop engine (their
clauses are rng-free), and any faulted sharded run replays
bit-identically from its seed.
"""

import pytest

from repro.faultlab.plan import FaultPlan, MessageDrop, Partition
from repro.pgrid.scaleout import (
    ScaleoutReport,
    ScaleoutSpec,
    build_deployment,
    run_inprocess,
    run_sharded,
)
from repro.simnet.events import SimulationError
from repro.simnet.latency import ConstantLatency
from repro.simnet.shard import ShardedTransport, partition_paths


def med_spec(**overrides):
    """A mediation deployment in the bit-exact cross-engine regime."""
    defaults = dict(num_peers=120, replication=1, refs_per_level=1,
                    seed=3, num_shards=2, workload="mediation",
                    num_schemas=4, num_entities=60,
                    entities_per_schema=20, ops_per_wave=6, num_waves=2)
    defaults.update(overrides)
    return ScaleoutSpec(**defaults)


def halves_partition(deployment, seed=7):
    """A plan splitting the node-id space in half — rng-free clauses,
    so fault accounting is engine-exact."""
    node_ids = sorted(deployment.assignment)
    half = len(node_ids) // 2
    return FaultPlan(seed=seed, faults=(
        Partition(side_a=tuple(node_ids[:half]),
                  side_b=tuple(node_ids[half:])),
    ))


# ----------------------------------------------------------------------
# Tentpole: one deployment, identical query outcomes everywhere
# ----------------------------------------------------------------------

class TestCrossEngineEquality:
    def test_outcomes_identical_across_engines_and_shard_counts(self):
        spec = med_spec()
        deployment = build_deployment(spec)
        baseline = run_inprocess(spec, deployment)
        assert baseline.ops_completed == baseline.ops_issued > 0
        assert baseline.successes > 0 and baseline.rows_returned > 0
        for shards in (1, 2, 4):
            sharded = run_sharded(med_spec(num_shards=shards), deployment)
            # Full per-ref summaries — rows, reformulations and exact
            # attributed message counts included.
            assert sharded.outcomes == baseline.outcomes
            assert sharded.query_messages == baseline.query_messages
            assert sharded.successes == baseline.successes

    @pytest.mark.parametrize("cut", [False, True],
                             ids=["fault-free", "partitioned"])
    def test_gate_counters_identical_across_engines(self, cut):
        # One gate: per-kind message counts, shipped values and drop
        # causes merge to the single loop's numbers (the shard gate
        # used to leave the first two empty).
        deployment = build_deployment(med_spec())
        plan = halves_partition(deployment) if cut else None
        baseline = run_inprocess(med_spec(faults=plan), deployment)
        assert baseline.messages_by_kind["route"] > 0
        assert cut or baseline.values_shipped > 0
        assert bool(baseline.drops_by_reason) == cut
        for shards in (1, 2, 4):
            sharded = run_sharded(med_spec(num_shards=shards, faults=plan),
                                  deployment)
            assert sharded.messages_by_kind == baseline.messages_by_kind
            assert sharded.values_shipped == baseline.values_shipped
            assert sharded.drops_by_reason == baseline.drops_by_reason
            assert sharded.messages_sent == baseline.messages_sent

    def test_forked_workers_match_inline_bit_for_bit(self):
        spec = med_spec()
        deployment = build_deployment(spec)
        inline = run_sharded(med_spec(mode="inline"), deployment)
        forked = run_sharded(med_spec(mode="process"), deployment)
        assert forked.outcomes == inline.outcomes
        assert forked.messages_sent == inline.messages_sent
        assert forked.events_processed == inline.events_processed

    def test_engine_batches_cross_the_seam_identically(self):
        spec = med_spec(batch_queries=3)
        deployment = build_deployment(spec)
        baseline = run_inprocess(spec, deployment)
        tags = {summary[0] for summary in baseline.outcomes.values()}
        assert tags == {"q", "b"}
        for shards in (1, 2):
            sharded = run_sharded(med_spec(batch_queries=3,
                                           num_shards=shards), deployment)
            assert sharded.outcomes == baseline.outcomes

    def test_run_to_run_identical(self):
        first = run_sharded(med_spec())
        second = run_sharded(med_spec())
        assert first.outcomes == second.outcomes
        assert first.messages_sent == second.messages_sent


# ----------------------------------------------------------------------
# Fault injection on sharded runs
# ----------------------------------------------------------------------

class TestShardedMediationFaults:
    def test_partition_accounting_matches_inprocess(self):
        # Partition clauses never draw rng, so sharded and single-loop
        # runs block the exact same sends and count them identically.
        spec = med_spec()
        deployment = build_deployment(spec)
        plan = halves_partition(deployment)
        baseline = run_inprocess(med_spec(faults=plan), deployment)
        assert baseline.faults_by_kind  # the split actually blocks traffic
        for shards in (1, 2, 4):
            sharded = run_sharded(med_spec(num_shards=shards, faults=plan),
                                  deployment)
            assert sharded.faults_by_kind == baseline.faults_by_kind
            assert sharded.outcomes == baseline.outcomes

    def test_faulted_run_replays_bit_identically(self):
        # Probabilistic clauses consume per-shard rng streams seeded
        # from the plan seed — replay and worker mode cannot move them.
        spec = med_spec()
        deployment = build_deployment(spec)
        plan = FaultPlan(seed=11, faults=(
            MessageDrop(probability=0.05),
            halves_partition(deployment).faults[0],
        ))
        first = run_sharded(med_spec(faults=plan), deployment)
        second = run_sharded(med_spec(faults=plan), deployment)
        assert first.faults_by_kind
        assert second.outcomes == first.outcomes
        assert second.faults_by_kind == first.faults_by_kind
        assert second.messages_sent == first.messages_sent
        forked = run_sharded(med_spec(faults=plan, mode="process"),
                             deployment)
        assert forked.outcomes == first.outcomes
        assert forked.faults_by_kind == first.faults_by_kind

    def test_install_must_precede_start_in_process_mode(self):
        spec = med_spec(mode="process")
        deployment = build_deployment(spec)
        transport = ShardedTransport(
            2, latency=ConstantLatency(),
            seed=spec.seed, mode="process")
        owner = partition_paths(deployment.assignment, 2)
        from repro.pgrid.scaleout import _make_peer
        for node_id in sorted(deployment.assignment):
            transport.add_peer(_make_peer(spec, deployment, node_id),
                               owner[node_id])
        transport.start()
        try:
            with pytest.raises(SimulationError):
                transport.install_fault_plan(halves_partition(deployment))
        finally:
            transport.stop()


# ----------------------------------------------------------------------
# Satellite: live process-mode metrics before stop()
# ----------------------------------------------------------------------

class TestLiveProcessStats:
    def _running_transport(self):
        spec = ScaleoutSpec(num_peers=60, replication=2, seed=5,
                            num_shards=2, num_keys=20, mode="process")
        deployment = build_deployment(spec)
        transport = ShardedTransport(
            2, latency=ConstantLatency(),
            seed=spec.seed, mode="process")
        owner = partition_paths(deployment.assignment, 2)
        from repro.pgrid.scaleout import _make_peer, _preload
        peers = {node_id: _make_peer(spec, deployment, node_id)
                 for node_id in sorted(deployment.assignment)}
        _preload(deployment, peers)
        for node_id, peer in peers.items():
            transport.add_peer(peer, owner[node_id])
        transport.start()
        for origin, key in deployment.waves[0][:10]:
            transport.submit(origin, "retrieve", key)
        transport.run_until_quiescent()
        return transport

    def test_metrics_snapshot_is_live_before_stop(self):
        # Regression: the merged snapshot used to read the parent-side
        # shard objects, which stop advancing at the fork — a mid-run
        # snapshot on a forked transport silently reported all zeros.
        transport = self._running_transport()
        try:
            live = transport.metrics_snapshot()
            assert live["messages_sent"] > 0
            assert sum(entry["events_processed"]
                       for entry in transport.shard_stats()) > 0
        finally:
            final = transport.stop()
        after = transport.metrics_snapshot()
        assert after["messages_sent"] >= live["messages_sent"]
        assert len(final) == 2

    def test_stats_error_when_workers_vanish_without_final_stats(self):
        transport = self._running_transport()
        conns = list(transport._conns)
        transport._conns = []
        try:
            with pytest.raises(SimulationError,
                               match="call stop"):
                transport.shard_stats()
        finally:
            transport._conns = conns
            transport.stop()


# ----------------------------------------------------------------------
# Satellite: malformed specs fail at construction, naming the field
# ----------------------------------------------------------------------

@pytest.mark.parametrize("field, value, accepted", [
    ("mode", "threads", "'inline', 'process'"),
    ("workload", "raw", "'retrieve', 'mediation'"),
    ("num_peers", 0, ">= 1"),
    ("replication", 0, ">= 1"),
    ("refs_per_level", 0, ">= 1"),
    ("num_shards", 0, ">= 1"),
    ("num_keys", 0, ">= 1"),
    ("num_waves", -1, ">= 0"),
    ("ops_per_wave", -1, ">= 0"),
    ("batch_queries", -1, ">= 0"),
])
def test_spec_validation_names_field_and_accepted_values(field, value,
                                                         accepted):
    with pytest.raises(ValueError) as error:
        ScaleoutSpec(**{field: value})
    assert f"ScaleoutSpec.{field}" in str(error.value)
    assert accepted in str(error.value)
    assert repr(value) in str(error.value)


# ----------------------------------------------------------------------
# Satellite: empty-wave deployments and zero-guard symmetry
# ----------------------------------------------------------------------

class TestEmptyWaveEdges:
    def test_zero_waves_retrieve_runs_clean(self):
        spec = ScaleoutSpec(num_peers=40, replication=2, seed=1,
                            num_shards=2, num_keys=5, num_waves=0)
        deployment = build_deployment(spec)
        for report in (run_sharded(spec, deployment),
                       run_inprocess(spec, deployment)):
            assert report.ops_issued == report.ops_completed == 0
            assert report.success_rate == 0.0
            assert report.summary()["success_rate"] == 0.0

    def test_zero_ops_per_wave_mediation_runs_clean(self):
        spec = med_spec(ops_per_wave=0)
        deployment = build_deployment(spec)
        sharded = run_sharded(spec, deployment)
        single = run_inprocess(spec, deployment)
        assert sharded.outcomes == single.outcomes == {}
        assert sharded.summary()["mean_hops"] == 0.0

    def test_empty_churn_run_reaches_quiescence(self):
        # Regression for the empty-slice max() in the quiet-jump branch
        # of run_until_quiescent: churn enabled, zero toggles pending,
        # zero traffic — the horizon fallback must not crash.
        spec = ScaleoutSpec(num_peers=40, replication=2, seed=1,
                            num_shards=2, num_keys=5, num_waves=0,
                            ops_per_wave=0)
        transport = ShardedTransport(
            2, latency=ConstantLatency(), seed=spec.seed)
        deployment = build_deployment(spec)
        owner = partition_paths(deployment.assignment, 2)
        from repro.pgrid.scaleout import _make_peer
        for node_id in sorted(deployment.assignment):
            transport.add_peer(_make_peer(spec, deployment, node_id),
                               owner[node_id])
        transport.start()
        transport.run_until_quiescent()
        transport.stop()

    def test_empty_report_summary_is_zero_guarded(self):
        report = ScaleoutReport(engine="inprocess", num_peers=0,
                                num_shards=1)
        assert report.success_rate == 0.0
        assert report.mean_hops == 0.0
        summary = report.summary()
        assert summary["success_rate"] == 0.0
        assert summary["faults_by_kind"] == {}
